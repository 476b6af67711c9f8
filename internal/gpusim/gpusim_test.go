package gpusim

import (
	"testing"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/lut"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func TestKernelTimeScalesWithBytes(t *testing.T) {
	d := New(platform.CoriV100().GPU)
	small := codec.Workload{BytesIn: 1 << 20, BytesOut: 4 << 20, Ops: 1 << 20, Chunks: 100}
	big := small
	big.BytesIn *= 16
	big.BytesOut *= 16
	big.Ops *= 16
	ts, tb := d.KernelTime(small), d.KernelTime(big)
	if tb <= ts {
		t.Errorf("bigger workload not slower: %g vs %g", tb, ts)
	}
	// Launch overhead dominates at zero work.
	if zt := d.KernelTime(codec.Workload{}); zt < KernelLaunchSec {
		t.Errorf("zero workload time %g below launch overhead", zt)
	}
}

func TestA100FasterThanV100(t *testing.T) {
	w := codec.Workload{BytesIn: 4 << 20, BytesOut: 64 << 20, Ops: 32 << 20, Chunks: 128}
	v := New(platform.CoriV100().GPU).KernelTime(w)
	a := New(platform.CoriA100().GPU).KernelTime(w)
	if a >= v {
		t.Errorf("A100 (%g) not faster than V100 (%g)", a, v)
	}
	// HBM ratio is 1.6/0.9 ~ 1.78; memory-bound kernels should gain close
	// to that.
	if ratio := v / a; ratio < 1.3 || ratio > 2.2 {
		t.Errorf("V100/A100 ratio %.2f outside plausible band", ratio)
	}
}

func TestDivergencePenalty(t *testing.T) {
	d := New(platform.CoriV100().GPU)
	uniform := codec.Workload{BytesIn: 1 << 20, BytesOut: 2 << 20, Ops: 1 << 26, Chunks: 256, Divergent: 0}
	divergent := uniform
	divergent.Divergent = 256
	tu, td := d.KernelTime(uniform), d.KernelTime(divergent)
	if td <= tu {
		t.Errorf("divergent workload not slower: %g vs %g", td, tu)
	}
	// Hierarchical assignment must beat the naive mapping on divergent
	// work, and be irrelevant on uniform work.
	naive := Device{GPU: d.GPU, Strategy: NaiveThreadPerChunk}
	if sp := naive.KernelTime(divergent) / td; sp <= 1.5 {
		t.Errorf("hierarchical speedup %.2f, want > 1.5 on fully divergent work", sp)
	}
	if sp := naive.KernelTime(uniform) / tu; sp != 1 {
		t.Errorf("uniform work speedup %.2f, want exactly 1", sp)
	}
}

func TestCopyTime(t *testing.T) {
	link := platform.CoriV100().Link
	t1 := CopyTime(link, 32<<20, 1)
	t4 := CopyTime(link, 32<<20, 4)
	if t4 <= t1 {
		t.Error("sharing the link should slow each stream")
	}
	// Sharing beyond the share group saturates.
	t8 := CopyTime(link, 32<<20, 8)
	if t8 != t4 {
		t.Errorf("share group not capped: %g vs %g", t8, t4)
	}
	if CopyTime(link, 0, 1) != 0 {
		t.Error("zero bytes should cost zero")
	}
	if CopyTime(link, 1<<20, 0) != CopyTime(link, 1<<20, 1) {
		t.Error("concurrent<1 should clamp to 1")
	}
}

func TestExecuteMatchesSerialDecode(t *testing.T) {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = 20
	s, err := synthetic.GenerateCosmo(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := lut.Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := lut.Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(platform.Summit().GPU)
	got, simT, err := dev.Execute(cd)
	if err != nil {
		t.Fatal(err)
	}
	if simT <= 0 {
		t.Error("simulated time should be positive")
	}
	if tensor.MaxAbsDiff(want, got) != 0 {
		t.Error("GPU-executed decode differs from serial decode")
	}
}

func TestExecuteDeltaFP(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 2
	cfg.Height = 24
	cfg.Width = 96
	s, err := synthetic.GenerateClimate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := deltafp.Encode(s.Data, deltafp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := deltafp.Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(platform.CoriA100().GPU)
	dev.Workers = 4
	got, _, err := dev.Execute(cd)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(want, got) != 0 {
		t.Error("parallel GPU decode of deltafp differs")
	}
}

func TestStrategyString(t *testing.T) {
	if Hierarchical.String() != "hierarchical" || NaiveThreadPerChunk.String() != "naive" {
		t.Error("strategy names")
	}
}
