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
	{"fixconc", "scipp/internal/dist"}, // hot-path scope for the send rule
	{"fixerr", "scipp/internal/fixerr"},
	{"fixdir", "scipp/internal/fixdir"},
	{"fixretry", "scipp/internal/fixretry"},
	{"fixdistsend", "scipp/internal/dist"},           // the guarded-send rule's three scopes,
	{"fixstagesend", "scipp/internal/pipeline"},      // each with its own hint
	{"fixdataservesend", "scipp/internal/dataserve"}, //
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

func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, tc := range fixtures {
		t.Run(tc.dir, func(t *testing.T) {
			// A fresh loader per fixture: fixconc shadows a real import path.
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			dir, err := filepath.Abs(filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, tc.path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			got := render(RunAnalyzers([]*Package{pkg}, All()))
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

// TestFixtureSeverities pins the severity ladder: loop-variable capture is a
// warning, everything else in the fixtures is an error.
func TestFixtureSeverities(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "fixconc"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "scipp/internal/dist")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, All())
	var warnings, errors int
	for _, d := range diags {
		switch d.Severity {
		case Warning:
			warnings++
		case Error:
			errors++
		}
	}
	if warnings == 0 || errors == 0 {
		t.Errorf("want both warnings and errors from fixconc, got %d warnings / %d errors", warnings, errors)
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

// TestAsmAllowedInFP16 loads the assembly fixture as internal/fp16, the one
// package whose assembly is sanctioned.
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
