package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRun smoke-tests each output mode: Tables I/II with the calibrated
// workload models, and the -metrics snapshot as text and as JSON.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"TABLE I:", "TABLE II:", "CALIBRATED PER-SAMPLE WORKLOAD MODELS", "deepcam", "cosmoflow"}},
		{[]string{"-metrics"}, []string{"breakdown.Cori-V100.base.read.seconds", "breakdown.Summit.gzip.node_rate", "pipeline.batches"}},
		{[]string{"-metrics", "-json"}, []string{`"breakdown.Cori-A100.gpu-plugin.node_rate"`}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
		if len(tc.args) == 2 && !json.Valid(out.Bytes()) {
			t.Errorf("-metrics -json wrote invalid JSON:\n%s", out.String())
		}
	}
	if err := run([]string{"-scale", "2"}, new(bytes.Buffer)); err == nil {
		t.Error("-scale 2 accepted")
	}
}
