package deltafp

import (
	"testing"

	"scipp/internal/codec"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func TestFusedTransposeMatchesSeparatePass(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 3
	cfg.Height = 24
	cfg.Width = 80
	s, err := synthetic.GenerateClimate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: CHW decode then a separate transpose pass.
	chw, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := codec.Decode(chw)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.TransposeCHWtoHWC(plain)

	// Fused: decode straight into HWC.
	hwc, err := FormatHWC().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(hwc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("fused shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.F16s {
		if got.F16s[i] != want.F16s[i] {
			t.Fatalf("fused transpose differs at %d", i)
		}
	}
}

func TestFusedTransposeParallel(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 2
	cfg.Height = 16
	cfg.Width = 64
	s, err := synthetic.GenerateClimate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := FormatHWC().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.DecodeParallel(cd, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.F16s {
		if a.F16s[i] != b.F16s[i] {
			t.Fatal("parallel fused decode differs")
		}
	}
}

func TestFusedTransposeValidation(t *testing.T) {
	src := tensor.New(tensor.F32, 1, 2, 16)
	blob, err := Encode(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := FormatHWC().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if cd.NumChunks() != 1 { // both lines in one group of eight
		t.Errorf("chunks = %d", cd.NumChunks())
	}
	dst := tensor.New(tensor.F16, 2, 16, 1)
	if err := cd.DecodeChunk(5, dst); err == nil {
		t.Error("chunk out of range accepted")
	}
	if err := cd.DecodeChunk(0, tensor.New(tensor.F16, 1, 2, 16)); err == nil {
		t.Error("CHW-shaped dst accepted by HWC decoder")
	}
	if _, err := FormatHWC().Open([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	// Workload charges extra ops for the strided stores.
	plain, _ := Format().Open(blob)
	if cd.Workload().Ops <= plain.Workload().Ops {
		t.Error("fused workload should charge strided-store overhead")
	}
}
