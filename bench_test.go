package scipp

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Reduced
// scales keep iterations fast; `go run ./cmd/sweep -suite paper` runs the
// same drivers at the paper's calibration scale. Custom metrics carry the figure's headline quantity (node
// samples/s, speedup, ratio) so `go test -bench .` prints the reproduced
// numbers directly.

import (
	"testing"

	"scipp/internal/bench"
	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/gzipc"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/zfpc"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
)

const benchScale = 0.25

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(TableII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	var groups int
	for i := 0; i < b.N; i++ {
		res, err := Fig5(32, 2)
		if err != nil {
			b.Fatal(err)
		}
		groups = res.Rows[0].UniqueGroups
	}
	b.ReportMetric(float64(groups), "unique-groups")
}

func BenchmarkFig6(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		series, err := Fig6(8, 2, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		final = series[1].Losses[len(series[1].Losses)-1]
	}
	b.ReportMetric(final, "decoded-final-loss")
}

func BenchmarkFig7(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := Fig7(8, 4, 3, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean, _ = bench.FinalLossStats(res.Decoded)
	}
	b.ReportMetric(mean, "decoded-final-loss")
}

func reportBestSpeedup(b *testing.B, rows []ThroughputRow) {
	best := 0.0
	for _, r := range rows {
		if r.Base > 0 && r.GPUPlugin/r.Base > best {
			best = r.GPUPlugin / r.Base
		}
	}
	b.ReportMetric(best, "max-speedup")
}

func BenchmarkFig8(b *testing.B) {
	var rows []ThroughputRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportBestSpeedup(b, rows)
}

func BenchmarkFig9(b *testing.B) {
	var rows []BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*rows[0].Stages.CPU, "base-cpu-ms")
}

func BenchmarkFig10(b *testing.B) {
	var rows []ThroughputRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportBestSpeedup(b, rows)
}

func BenchmarkFig11(b *testing.B) {
	var rows []ThroughputRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig11(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportBestSpeedup(b, rows)
}

func BenchmarkFig12(b *testing.B) {
	var rows []BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig12(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*rows[0].Stages.CPU, "base-cpu-ms")
}

func BenchmarkHeadlines(b *testing.B) {
	var h bench.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = Headlines(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.DeepCAMSmallSetSpeedup, "deepcam-speedup")
	b.ReportMetric(h.CosmoMaxSpeedup, "cosmo-speedup")
	b.ReportMetric(h.GzipWorstSlowdown, "gzip-slowdown")
}

// --- Ablations ---

func climateForBench(b *testing.B) *synthetic.ClimateSample {
	b.Helper()
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 8
	cfg.Height = 96
	cfg.Width = 288
	s, err := synthetic.GenerateClimate(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func cosmoForBench(b *testing.B, dim int) *synthetic.CosmoSample {
	b.Helper()
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = dim
	s, err := synthetic.GenerateCosmo(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationExpBits sweeps the delta exponent-window width of §V-A
// ("an arbitrary number of bits, 3 in our case").
func BenchmarkAblationExpBits(b *testing.B) {
	s := climateForBench(b)
	for _, expBits := range []int{2, 3, 4} {
		b.Run(map[int]string{2: "exp2/mant5", 3: "exp3/mant4", 4: "exp4/mant3"}[expBits], func(b *testing.B) {
			var ratio float64
			b.SetBytes(int64(s.Data.Bytes()))
			for i := 0; i < b.N; i++ {
				blob, err := deltafp.Encode(s.Data, deltafp.Options{ExpBits: expBits})
				if err != nil {
					b.Fatal(err)
				}
				st, err := deltafp.BlobStats(blob)
				if err != nil {
					b.Fatal(err)
				}
				ratio = st.Ratio
			}
			b.ReportMetric(ratio, "ratio-vs-fp32")
		})
	}
}

// BenchmarkAblationFusedLog compares applying the log operator on the
// lookup table (the paper's fusion, §V-B) against per-voxel application.
func BenchmarkAblationFusedLog(b *testing.B) {
	s := cosmoForBench(b, 48)
	blob, err := lut.Encode(s.Channels, s.Dim)
	if err != nil {
		b.Fatal(err)
	}
	for _, fused := range []bool{true, false} {
		name := "fused-table"
		if !fused {
			name = "per-voxel"
		}
		b.Run(name, func(b *testing.B) {
			cd, err := lut.FormatWithOp(lut.OpLog1p, fused).Open(blob)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(s.RawBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(cd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDecodeStrategy compares the hierarchical warp assignment
// against the naive thread-per-line mapping on the modeled GPU (§VI).
func BenchmarkAblationDecodeStrategy(b *testing.B) {
	m, err := Calibrate(DeepCAM, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := PlatformByName("Cori-V100")
	for _, strat := range []gpusim.Strategy{gpusim.Hierarchical, gpusim.NaiveThreadPerChunk} {
		b.Run(strat.String(), func(b *testing.B) {
			dev := gpusim.Device{GPU: p.GPU, Strategy: strat}
			var t float64
			for i := 0; i < b.N; i++ {
				t = dev.KernelTime(m.DecodeWorkload)
			}
			b.ReportMetric(t*1e3, "kernel-ms")
		})
	}
}

// BenchmarkAblationKeyWidth compares 1-byte and 2-byte LUT key decode
// throughput (§VI: "we use keys of width 1 or 2 bytes").
func BenchmarkAblationKeyWidth(b *testing.B) {
	dim := 32
	n := dim * dim * dim
	mk := func(diversity int) []byte {
		var ch [4][]int16
		for c := range ch {
			ch[c] = make([]int16, n)
			for i := range ch[c] {
				ch[c][i] = int16((i*31 + c) % diversity)
			}
		}
		blob, err := lut.Encode(ch, dim)
		if err != nil {
			b.Fatal(err)
		}
		return blob
	}
	for _, tc := range []struct {
		name      string
		diversity int
	}{{"1-byte-keys", 200}, {"2-byte-keys", 3000}} {
		b.Run(tc.name, func(b *testing.B) {
			blob := mk(tc.diversity)
			cd, err := lut.Format().Open(blob)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * n * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(cd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinePrefetch measures loader throughput vs prefetch depth
// (double-buffering ablation).
func BenchmarkPipelinePrefetch(b *testing.B) {
	cfg := DefaultCosmoConfig()
	cfg.Dim = 16
	ds, err := BuildCosmoDataset(cfg, 16, PluginEncoding)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "prefetch1", 4: "prefetch4", 16: "prefetch16"}[depth], func(b *testing.B) {
			l, err := pipeline.New(ds, pipeline.Config{
				Format:   FormatFor(CosmoFlow, PluginEncoding),
				Batch:    4,
				Prefetch: depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := l.Epoch(i).Drain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDeepCAM and BenchmarkDecodeDeepCAM measure the real codec
// at a representative slice of paper scale.
func BenchmarkEncodeDeepCAM(b *testing.B) {
	s := climateForBench(b)
	b.SetBytes(int64(s.Data.Bytes()))
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDeepCAM(s.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDeepCAMOnDevice(b *testing.B) {
	s := climateForBench(b)
	blob, err := EncodeDeepCAM(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := PlatformByName("Summit")
	f := FormatFor(DeepCAM, PluginEncoding)
	b.SetBytes(int64(s.Data.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeOnDevice(f, blob, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipBaselineDecode carries the conventional-compression
// comparison of §IX-B.
func BenchmarkGzipBaselineDecode(b *testing.B) {
	s := cosmoForBench(b, 32)
	rec := synthetic.CosmoToRecord(s)
	z, err := gzipc.Encode(rec, 0)
	if err != nil {
		b.Fatal(err)
	}
	f := FormatFor(CosmoFlow, Gzip)
	b.SetBytes(int64(s.RawBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFull(f, z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeSim runs the discrete-event node simulation that validates
// the closed-form pipeline model with explicit queueing.
func BenchmarkNodeSim(b *testing.B) {
	m, err := Calibrate(CosmoFlow, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := PlatformByName("Cori-V100")
	sc := Scenario{
		Platform: p, Model: m, Enc: PluginEncoding, Plugin: pipeline.GPUPlugin,
		SamplesPerNode: bench.CosmoSmallPerGPU * p.GPUsPerNode,
		Staged:         true, Batch: 4, Epoch: 1,
	}
	var node float64
	for i := 0; i < b.N; i++ {
		res, err := bench.SimulateNode(sc, 30, nil)
		if err != nil {
			b.Fatal(err)
		}
		node = res.Node
	}
	b.ReportMetric(node, "node-samples/s")
}

// BenchmarkScaleOut projects multi-node weak scaling.
func BenchmarkScaleOut(b *testing.B) {
	m, err := Calibrate(DeepCAM, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := PlatformByName("Summit")
	sc := Scenario{
		Platform: p, Model: m, Enc: PluginEncoding, Plugin: pipeline.GPUPlugin,
		SamplesPerNode: bench.DeepCAMSmallPerNode, Staged: true, Batch: 4, Epoch: 1,
	}
	var eff float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.ScaleOut(sc, []int{1, 16, 256})
		if err != nil {
			b.Fatal(err)
		}
		eff = rows[len(rows)-1].Efficiency
	}
	b.ReportMetric(100*eff, "256-node-efficiency-%")
}

// BenchmarkAblationZfpComparator contrasts the domain codec with the
// zfp-style general-purpose compressor on identical data (§III).
func BenchmarkAblationZfpComparator(b *testing.B) {
	s := climateForBench(b)
	plane := 96 * 288
	b.Run("deltafp", func(b *testing.B) {
		b.SetBytes(int64(s.Data.Bytes()))
		var ratio float64
		for i := 0; i < b.N; i++ {
			blob, err := deltafp.Encode(s.Data, deltafp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ratio = float64(s.Data.Bytes()) / float64(len(blob))
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("zfpc-r8", func(b *testing.B) {
		b.SetBytes(int64(s.Data.Bytes()))
		var ratio float64
		for i := 0; i < b.N; i++ {
			total := 0
			for c := 0; c < 8; c++ {
				blob, err := zfpc.Encode(s.Data.F32s[c*plane:(c+1)*plane], 96, 288, zfpc.Options{Rate: 8})
				if err != nil {
					b.Fatal(err)
				}
				total += len(blob)
			}
			ratio = float64(s.Data.Bytes()) / float64(total)
		}
		b.ReportMetric(ratio, "ratio")
	})
}
