package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun smoke-tests the three profiles at a small -samples: the warp-level
// kernel comparison, the real pipeline's wall-clock profile, and the
// two-epoch sample-cache run.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-samples", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"DECODE KERNEL", "hierarchical assignment speedup",
		"REAL PIPELINE PROFILE (this host, 2 samples", "STAGE SPANS", "opened 2 blobs",
		"SAMPLE CACHE (Cori-V100 node hierarchy, 2 epochs x 2 samples)", "hits 2  misses 2",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-platform", "Frontier"}, new(bytes.Buffer)); err == nil {
		t.Error("unknown platform accepted")
	}
}
