package train

import (
	"math"
	"testing"

	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func tinyClimate() synthetic.ClimateConfig {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 16
	cfg.Width = 16
	return cfg
}

func tinyCosmo() synthetic.CosmoConfig {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = 8
	return cfg
}

func TestStackData(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2}, 2)
	b := tensor.FromF32([]float32{3, 4}, 2)
	x, err := StackData([]*tensor.Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Shape.Equal(tensor.Shape{2, 2}) || x.F32s[3] != 4 {
		t.Errorf("stacked: %v %v", x.Shape, x.F32s)
	}
	// FP16 samples widen to FP32.
	h := tensor.New(tensor.F16, 2)
	h.Set32(0, 1.5)
	x, err = StackData([]*tensor.Tensor{h})
	if err != nil {
		t.Fatal(err)
	}
	if x.DT != tensor.F32 || x.F32s[0] != 1.5 {
		t.Error("FP16 stack did not widen")
	}
	if _, err := StackData(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := StackData([]*tensor.Tensor{a, tensor.New(tensor.F32, 3)}); err == nil {
		t.Error("ragged batch accepted")
	}
}

func TestStackLabels(t *testing.T) {
	a := tensor.New(tensor.I16, 2, 2)
	a.I16s[3] = 7
	y, err := StackLabels([]*tensor.Tensor{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if y.DT != tensor.I16 || !y.Shape.Equal(tensor.Shape{2, 2, 2}) || y.I16s[7] != 7 {
		t.Errorf("labels: %v", y.Shape)
	}
}

func TestDeepCAMLossDecreases(t *testing.T) {
	cfg := Config{Samples: 8, Batch: 2, Steps: 20, Seed: 1, LR: 0.05, Warmup: 4}
	losses, err := DeepCAM(tinyClimate(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 20 {
		t.Fatalf("got %d losses", len(losses))
	}
	first := avg(losses[:5])
	last := avg(losses[15:])
	if last >= first {
		t.Errorf("DeepCAM loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestDeepCAMBaseVsDecodedConvergence(t *testing.T) {
	// Fig 6's claim: decoded (lossy FP16) samples give the same convergence
	// behaviour as the base. Same seeds, same schedule; trajectories must
	// track closely.
	clim := tinyClimate()
	cfg := Config{Samples: 8, Batch: 2, Steps: 16, Seed: 3, LR: 0.05, Warmup: 4}
	base, err := DeepCAM(clim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Encoded = true
	dec, err := DeepCAM(clim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Early steps are nearly identical (same init, near-identical inputs);
	// later steps diverge chaotically at the per-step level but the
	// trajectory must stay in the same regime (the paper's "identical
	// convergence behavior" is a plot-resolution statement).
	if d := math.Abs(base[0] - dec[0]); d > 0.05*(math.Abs(base[0])+0.01) {
		t.Errorf("step 0: base %.4f vs decoded %.4f differ at start", base[0], dec[0])
	}
	tail := len(base) - 4
	bTail, dTail := avg(base[tail:]), avg(dec[tail:])
	if math.Abs(bTail-dTail) > 0.5*(math.Abs(bTail)+0.05) {
		t.Errorf("final losses diverged: base %.4f vs decoded %.4f", bTail, dTail)
	}
}

func TestCosmoFlowLossDecreases(t *testing.T) {
	cfg := Config{Samples: 8, Batch: 4, Epochs: 8, Seed: 2, LR: 0.01, Warmup: 2}
	losses, err := CosmoFlow(tinyCosmo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 8 {
		t.Fatalf("got %d epoch losses", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("CosmoFlow loss did not decrease: %v", losses)
	}
}

func TestCosmoFlowDecodedTracksBase(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 6, Seed: 5, LR: 0.01, Warmup: 2}
	base, err := CosmoFlow(cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Encoded = true
	dec, err := CosmoFlow(cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Final losses must be in the same regime (both converging).
	if dec[len(dec)-1] > 2*base[len(base)-1]+0.05 {
		t.Errorf("decoded diverged: base %v decoded %v", base, dec)
	}
}

func TestDataParallelMatchesSingleRankShapes(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 3, Seed: 7, LR: 0.01, Warmup: 1}
	multi, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Losses) != 3 {
		t.Fatalf("got %d epochs", len(multi.Losses))
	}
	// Loss must decrease under data-parallel training too.
	if multi.Losses[len(multi.Losses)-1] >= multi.Losses[0] {
		t.Errorf("data-parallel loss did not decrease: %v", multi.Losses)
	}
}

func TestDataParallelValidation(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 4, Batch: 3, Epochs: 1, Seed: 1, LR: 0.01}
	if _, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 4}); err == nil {
		t.Error("batch smaller than the live ranks accepted")
	}
	if _, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	// An uneven batch is weighted exactly, not rejected.
	if _, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 2}); err != nil {
		t.Errorf("batch of 3 over 2 ranks: %v", err)
	}
}

// TestDataParallelHonoursWarmup: a 4-rank run follows the one-replica
// curve, warmup included. Each rank's shard-weighted gradient sums to the
// global batch mean, so only float rounding separates the two.
func TestDataParallelHonoursWarmup(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 16, Batch: 4, Epochs: 1, Seed: 1, LR: 0.01, Warmup: 4}
	one, err := CosmoFlow(cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(four.Losses[0]-one[0]) / math.Abs(one[0]); rel > 1e-5 {
		t.Errorf("4-rank first-epoch loss %.7f, 1-rank %.7f (relative %.2g > 1e-5)", four.Losses[0], one[0], rel)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 4, Batch: 2, Epochs: 2, Seed: 11, LR: 0.01}
	a, err := CosmoFlow(cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CosmoFlow(cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic training: %v vs %v", a, b)
		}
	}
}

func avg(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
