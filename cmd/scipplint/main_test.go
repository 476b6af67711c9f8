package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestRunJSONGolden locks the -json wire format: one object per finding,
// module-relative file paths, severity names, and stable ordering.
func TestRunJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "./internal/analysis/testdata/fixpoolleak"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has error findings); stderr: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", "fixpoolleak.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestRunSeverityThreshold verifies the exit code keys off the -severity
// floor: fixhotalloc emits warnings only, so raising the floor to error
// passes while the default warning floor fails.
func TestRunSeverityThreshold(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./internal/analysis/testdata/fixhotalloc"}, &out, &errb); code != 1 {
		t.Errorf("default threshold: exit = %d, want 1; stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-severity", "error", "./internal/analysis/testdata/fixhotalloc"}, &out, &errb); code != 0 {
		t.Errorf("-severity error: exit = %d, want 0; stderr: %s", code, errb.String())
	}
	// The warnings are still printed even though they do not fail the run.
	if out.Len() == 0 {
		t.Error("-severity error suppressed the warning listing entirely")
	}
}

// TestRunBadFlags covers the usage-error exit code.
func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-severity", "loud"}, &out, &errb); code != 2 {
		t.Errorf("bad severity: exit = %d, want 2", code)
	}
	if code := run([]string{"./../escape"}, &out, &errb); code != 2 {
		t.Errorf("escaping pattern: exit = %d, want 2", code)
	}
}

// TestRunSubsetHasNoDeadcode runs one package: its callers elsewhere in the
// module are not loaded, so deadcode must stay silent rather than report
// what only they reach.
func TestRunSubsetHasNoDeadcode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./internal/pipeline"}, &out, &errb); code != 0 {
		t.Errorf("exit = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "[deadcode]") {
		t.Errorf("deadcode reported on a subset run:\n%s", out.String())
	}
}
