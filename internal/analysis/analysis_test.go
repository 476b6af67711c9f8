package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture expect.txt golden files")

// fixtures maps each testdata package to the import path it is loaded under.
// The path matters: analyzer scope rules key off it (internal/ vs cmd/,
// codec subpackages, hot-path packages).
var fixtures = []struct {
	dir  string
	path string
}{
	{"fixdet", "scipp/internal/fixdet"},
	{"fixmissing", "scipp/internal/codec/fixmissing"},
	{"fixpanic", "scipp/internal/fixpanic"},
	{"fixconc", "scipp/internal/dist"}, // guarded-send scope for the loop send
	{"fixerr", "scipp/internal/fixerr"},
	{"fixdir", "scipp/internal/fixdir"},
	{"fixretry", "scipp/internal/fixretry"},
	{"fixdistsend", "scipp/internal/dist"},           // the guarded-send rule's four scopes,
	{"fixstagesend", "scipp/internal/pipeline"},      // each with its own hint
	{"fixdataservesend", "scipp/internal/dataserve"}, //
	{"fixtrainsend", "scipp/internal/train"},         //
	{"fixhotalloc", "scipp/internal/fixhotalloc"},
	{"fixshapecontract", "scipp/internal/fixshapecontract"},
	{"fixpoolleak", "scipp/internal/fixpoolleak"},
	{"fixcopydiscipline", "scipp/internal/fixcopydiscipline"},
	{"fixworkerguard", "scipp/internal/pipeline"},   // pipeline scope for the supervised-goroutine rule
	{"fixbreakerstate", "scipp/internal/dataserve"}, // dataserve scope for the breaker transition rule
	{"fixunsafe", "scipp/internal/fixunsafe"},
	{"fixasm", "scipp/internal/fixasm"},
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// render formats diagnostics with basename-only filenames so the goldens are
// stable across checkouts.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: [%s] %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
			d.Severity, d.Analyzer, d.Message)
	}
	return b.String()
}

// fixtureDiags loads testdata/dir under import path and runs every
// analyzer over it. Each call takes a fresh loader, because several
// fixtures shadow a real import path.
func fixtureDiags(t *testing.T, dir, path string) []Diagnostic {
	t.Helper()
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(abs, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return RunAnalyzers([]*Package{pkg}, All())
}

func TestFixtures(t *testing.T) {
	for _, tc := range fixtures {
		t.Run(tc.dir, func(t *testing.T) {
			got := render(fixtureDiags(t, tc.dir, tc.path))
			golden := filepath.Join("testdata", tc.dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// warningAnalyzers are the analyzers whose findings are warnings; every
// other analyzer reports errors.
var warningAnalyzers = map[string]bool{
	"hotalloc":       true,
	"copydiscipline": true,
	"shapecontract":  true,
}

// TestFixtureSeverities pins the severity ladder: across every fixture,
// hotalloc, copydiscipline and shapecontract warn and every other analyzer
// errors, so each analyzer reports at one severity only.
func TestFixtureSeverities(t *testing.T) {
	seen := make(map[string]bool)
	for _, tc := range fixtures {
		for _, d := range fixtureDiags(t, tc.dir, tc.path) {
			seen[d.Analyzer] = true
			want := Error
			if warningAnalyzers[d.Analyzer] {
				want = Warning
			}
			if d.Severity != want {
				t.Errorf("%s: %s, want severity %s", tc.dir, d, want)
			}
		}
	}
	for name := range warningAnalyzers {
		if !seen[name] {
			t.Errorf("no fixture exercises warning analyzer %s", name)
		}
	}
}

// TestRepositoryIsLintClean is the self-test the merge gate relies on: the
// analyzers applied to the whole module must report nothing.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow")
	}
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(pkgs, All()) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestDirectiveParsing checks the malformed-directive diagnostic and that a
// reasoned suppression actually removes its finding.
func TestDirectiveParsing(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixdir"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "scipp/internal/fixdir")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, All())
	var sawMalformed, sawUnsuppressed bool
	for _, d := range diags {
		if d.Analyzer == "lintdirective" {
			sawMalformed = true
		}
		if d.Analyzer == "uncheckederr" {
			sawUnsuppressed = true
		}
		if d.Analyzer == "uncheckederr" && d.Pos.Line < 14 {
			t.Errorf("suppressed finding leaked through: %s", d)
		}
	}
	if !sawMalformed {
		t.Error("malformed directive not reported")
	}
	if !sawUnsuppressed {
		t.Error("the unsuppressed discard in alsoQuiet was not reported")
	}
}

// TestUnsafeAllowedInTensor loads the unsafe fixture as internal/tensor,
// the one package whose import of unsafe is sanctioned.
func TestUnsafeAllowedInTensor(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixunsafe"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "scipp/internal/tensor")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{UnsafeImport}) {
		t.Errorf("unsafe flagged in internal/tensor: %s", d)
	}
}

// TestAsmAllowedInFP16 loads the assembly fixture as internal/fp16, one of
// the two packages whose assembly is sanctioned.
func TestAsmAllowedInFP16(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixasm"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "scipp/internal/fp16")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.AsmFiles) != 1 {
		t.Fatalf("loaded %d assembly files, want 1", len(pkg.AsmFiles))
	}
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{UnsafeImport}) {
		t.Errorf("assembly flagged in internal/fp16: %s", d)
	}
}

// TestAsmAllowedInDeltafp loads the assembly fixture as
// internal/codec/deltafp, the other package whose assembly is sanctioned,
// and as packages whose paths only come close, which are still flagged (so
// is the fixture as itself, in TestFixtures).
func TestAsmAllowedInDeltafp(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixasm"))
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"scipp/internal/codec/deltafp":     0,
		"scipp/internal/codec":             1,
		"scipp/internal/codec/deltafp/sub": 1,
		"scipp/internal/codec/lut":         1,
	} {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.AsmFiles) != 1 {
			t.Fatalf("%s: loaded %d assembly files, want 1", path, len(pkg.AsmFiles))
		}
		if got := len(RunAnalyzers([]*Package{pkg}, []*Analyzer{UnsafeImport})); got != want {
			t.Errorf("assembly in %s: %d findings, want %d", path, got, want)
		}
	}
}

// TestLoaderHonoursBuildConstraints loads a package whose three files each
// declare Pick: an amd64 file, a !amd64 file and one behind a tag no build
// sets. Only the file go build would pick for this host may be loaded, or
// type checking fails on the redeclaration. A directory whose only Go file
// is excluded holds no package.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixbuild"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "scipp/internal/fixbuild")
	if err != nil {
		t.Fatal(err)
	}
	want := "pick_other.go"
	if runtime.GOARCH == "amd64" {
		want = "pick_amd64.go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("loaded %v, want [%s]", got, want)
	}
	for sub, want := range map[string]bool{"": true, "onlyignored": false} {
		if ok, err := hasGoFiles(filepath.Join(dir, sub)); err != nil || ok != want {
			t.Errorf("hasGoFiles(fixbuild/%s) = %v, %v; want %v", sub, ok, err, want)
		}
	}
}
