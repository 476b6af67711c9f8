package core

import (
	"path/filepath"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func smallClimateCfg() synthetic.ClimateConfig {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 3
	cfg.Height = 32
	cfg.Width = 64
	return cfg
}

func smallCosmoCfg() synthetic.CosmoConfig {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = 16
	return cfg
}

func TestFormatsRegistered(t *testing.T) {
	for _, name := range []string{
		"deltafp", "cosmo-lut", "cosmo-lut-unfused",
		"raw-deepcam", "raw-cosmo", "gzip+raw-deepcam", "gzip+raw-cosmo",
	} {
		if _, err := codec.Lookup(name); err != nil {
			t.Errorf("format %q not registered: %v", name, err)
		}
	}
}

func TestBuildClimateDatasetAllEncodings(t *testing.T) {
	cfg := smallClimateCfg()
	var sizes [3]int
	for _, enc := range []Encoding{Baseline, Gzip, Plugin} {
		ds, err := BuildClimateDataset(cfg, 3, enc)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 3 {
			t.Fatalf("%v: %d samples", enc, ds.Len())
		}
		sizes[enc] = ds.EncodedBytes() / ds.Len()
		// Every blob must open under the matching format and decode.
		f := FormatFor(DeepCAM, enc)
		cd, err := f.Open(ds.Blobs[0])
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		out, err := codec.Decode(cd)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if !out.Shape.Equal(tensor.Shape{3, 32, 64}) {
			t.Fatalf("%v: decoded shape %v", enc, out.Shape)
		}
	}
	// Encoded variants must be smaller than the baseline.
	if sizes[Plugin] >= sizes[Baseline] {
		t.Errorf("plugin (%d) not smaller than baseline (%d)", sizes[Plugin], sizes[Baseline])
	}
	if sizes[Gzip] >= sizes[Baseline] {
		t.Errorf("gzip (%d) not smaller than baseline (%d)", sizes[Gzip], sizes[Baseline])
	}
}

func TestBuildCosmoDatasetAllEncodings(t *testing.T) {
	cfg := smallCosmoCfg()
	for _, enc := range []Encoding{Baseline, Gzip, Plugin} {
		ds, err := BuildCosmoDataset(cfg, 2, enc)
		if err != nil {
			t.Fatal(err)
		}
		f := FormatFor(CosmoFlow, enc)
		cd, err := f.Open(ds.Blobs[1])
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		out, err := codec.Decode(cd)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if !out.Shape.Equal(tensor.Shape{4, 16, 16, 16}) {
			t.Fatalf("%v: decoded shape %v", enc, out.Shape)
		}
		if len(ds.Labels[1].F32s) != 4 {
			t.Fatalf("%v: label shape", enc)
		}
	}
}

func TestLabelsAreParameters(t *testing.T) {
	cfg := smallCosmoCfg()
	ds, err := BuildCosmoDataset(cfg, 2, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	s, err := synthetic.GenerateCosmo(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if ds.Labels[1].F32s[i] != s.Params[i] {
			t.Errorf("label[%d] = %g, want %g", i, ds.Labels[1].F32s[i], s.Params[i])
		}
	}
}

func TestNewLoaderEndToEnd(t *testing.T) {
	cfg := smallCosmoCfg()
	ds, err := BuildCosmoDataset(cfg, 4, Plugin)
	if err != nil {
		t.Fatal(err)
	}
	for _, plug := range []pipeline.Plugin{pipeline.CPUPlugin, pipeline.GPUPlugin} {
		l, err := NewLoader(ds, LoaderConfig{
			App: CosmoFlow, Encoding: Plugin, Plugin: plug,
			Platform: platform.Summit(), Batch: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := l.Epoch(0).Drain()
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Errorf("%v plugin delivered %d samples", plug, n)
		}
	}
}

func TestGPUPluginRequiresPluginEncoding(t *testing.T) {
	cfg := smallCosmoCfg()
	ds, err := BuildCosmoDataset(cfg, 1, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewLoader(ds, LoaderConfig{
		App: CosmoFlow, Encoding: Baseline, Plugin: pipeline.GPUPlugin,
		Platform: platform.Summit(),
	})
	if err == nil {
		t.Error("GPU decode of baseline encoding accepted; gunzip/HDF5 parse is CPU-only in the paper")
	}
}

func TestTFRecordRoundTrip(t *testing.T) {
	cfg := smallCosmoCfg()
	ds, err := BuildCosmoDataset(cfg, 3, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "cosmo.tfrecord")
		if err := WriteCosmoTFRecord(path, ds, gz); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCosmoTFRecord(path, gz)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != 3 {
			t.Fatalf("gz=%v: %d samples after round trip", gz, back.Len())
		}
		for i := range ds.Blobs {
			if string(back.Blobs[i]) != string(ds.Blobs[i]) {
				t.Fatalf("gz=%v: blob %d mismatch", gz, i)
			}
			if tensor.MaxAbsDiff(back.Labels[i], ds.Labels[i]) != 0 {
				t.Fatalf("gz=%v: label %d mismatch", gz, i)
			}
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if DeepCAM.String() != "deepcam" || CosmoFlow.String() != "cosmoflow" {
		t.Error("app names")
	}
	if Baseline.String() != "base" || Gzip.String() != "gzip" || Plugin.String() != "plugin" {
		t.Error("encoding names")
	}
}

func TestClimateDirRoundTrip(t *testing.T) {
	cfg := smallClimateCfg()
	for _, enc := range []Encoding{Baseline, Plugin} {
		ds, err := BuildClimateDataset(cfg, 3, enc)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteClimateDir(dir, ds); err != nil {
			t.Fatal(err)
		}
		back, err := OpenClimateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != 3 {
			t.Fatalf("%v: %d samples after dir round trip", enc, back.Len())
		}
		for i := 0; i < 3; i++ {
			blob, err := back.Blob(i)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(ds.Blobs[i]) {
				t.Fatalf("%v: blob %d mismatch", enc, i)
			}
			lb, err := back.Label(i)
			if err != nil {
				t.Fatal(err)
			}
			if tensor.MaxAbsDiff(lb, ds.Labels[i]) != 0 {
				t.Fatalf("%v: label %d mismatch", enc, i)
			}
		}
		// The on-disk dataset must drive a loader end to end.
		l, err := NewLoader(back, LoaderConfig{App: DeepCAM, Encoding: enc, Batch: 2})
		if err != nil {
			t.Fatal(err)
		}
		n, err := l.Epoch(0).Drain()
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("%v: loader delivered %d from dir dataset", enc, n)
		}
	}
}

func TestOpenClimateDirErrors(t *testing.T) {
	if _, err := OpenClimateDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestCosmoTFRecordIndexedDataset(t *testing.T) {
	cfg := smallCosmoCfg()
	ds, err := BuildCosmoDataset(cfg, 5, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	recPath := filepath.Join(dir, "cosmo.tfrecord")
	idxPath := recPath + ".idx"
	if err := WriteCosmoTFRecord(recPath, ds, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteCosmoIndex(recPath, idxPath); err != nil {
		t.Fatal(err)
	}
	indexed, closer, err := OpenCosmoTFRecordIndexed(recPath, idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if indexed.Len() != 5 {
		t.Fatalf("indexed dataset has %d samples", indexed.Len())
	}
	// Random-access blobs and labels match the in-memory dataset.
	for _, i := range []int{4, 0, 2} {
		blob, err := indexed.Blob(i)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(ds.Blobs[i]) {
			t.Fatalf("blob %d mismatch", i)
		}
		lb, err := indexed.Label(i)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(lb, ds.Labels[i]) != 0 {
			t.Fatalf("label %d mismatch", i)
		}
	}
	// And it must drive a loader end to end.
	l, err := NewLoader(indexed, LoaderConfig{App: CosmoFlow, Encoding: Baseline, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := l.Epoch(0).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("loader delivered %d from indexed dataset", n)
	}
}
