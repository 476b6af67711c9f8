package bench

import (
	"strings"
	"testing"

	"scipp/internal/core"
	"scipp/internal/iosim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/train"
)

// testScale keeps calibration fast; sizes extrapolate linearly.
const testScale = 0.25

func mustModel(t testing.TB, app core.App) AppModel {
	t.Helper()
	m, err := Calibrate(app, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCalibrationSizes(t *testing.T) {
	dc := mustModel(t, core.DeepCAM)
	if dc.RawF32Bytes != 16*768*1152*4 {
		t.Errorf("DeepCAM raw bytes %d", dc.RawF32Bytes)
	}
	if dc.PluginBytes >= dc.RawF32Bytes/2 {
		t.Errorf("DeepCAM plugin (%d) should compress > 2x vs FP32 (%d)", dc.PluginBytes, dc.RawF32Bytes)
	}
	cf := mustModel(t, core.CosmoFlow)
	if cf.StoredBytes < 4*128*128*128*2 {
		t.Errorf("CosmoFlow stored bytes %d below int16 payload", cf.StoredBytes)
	}
	// §V-B: LUT ~4x, gzip ~5x (gzip ahead of LUT on the int16 source).
	if cf.PluginBytes <= cf.GzipBytes {
		t.Errorf("gzip (%d) should be smaller than LUT (%d) on cosmo data", cf.GzipBytes, cf.PluginBytes)
	}
	lutRatio := float64(cf.StoredBytes) / float64(cf.PluginBytes)
	if lutRatio < 2.5 || lutRatio > 6 {
		t.Errorf("LUT ratio %.2f outside the ~4x ballpark", lutRatio)
	}
	if _, err := Calibrate(core.DeepCAM, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Calibrate(core.DeepCAM, 2); err == nil {
		t.Error("scale 2 accepted")
	}
}

func simulate(t testing.TB, p platform.Platform, m AppModel, enc core.Encoding, plug pipeline.Plugin, samples int, staged bool, batch, epoch int) StepResult {
	t.Helper()
	r, err := Simulate(Scenario{
		Platform: p, Model: m, Enc: enc, Plugin: plug,
		SamplesPerNode: samples, Staged: staged, Batch: batch, Epoch: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The next tests assert the paper's qualitative claims hold in the model.

func TestDeepCAMBaselineDoesNotImproveOnA100(t *testing.T) {
	// §IX-A: "the baseline performance does not improve when migrating from
	// the Cori-V100 to the faster Cori-A100 system".
	m := mustModel(t, core.DeepCAM)
	v := simulate(t, platform.CoriV100(), m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	a := simulate(t, platform.CoriA100(), m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	if ratio := a.Node / v.Node; ratio > 1.15 || ratio < 0.85 {
		t.Errorf("baseline A100/V100 = %.2f, paper has them equal", ratio)
	}
}

func TestDeepCAMPluginSpeedups(t *testing.T) {
	m := mustModel(t, core.DeepCAM)
	for _, tc := range []struct {
		p        platform.Platform
		min, max float64
	}{
		{platform.CoriV100(), 1.3, 3.5},
		{platform.CoriA100(), 2.0, 4.0}, // paper: up to 3.1x
		{platform.Summit(), 1.05, 1.8},  // paper: limited to ~1.3x
	} {
		base := simulate(t, tc.p, m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
		plug := simulate(t, tc.p, m, core.Plugin, pipeline.GPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
		sp := Speedup(plug, base)
		if sp < tc.min || sp > tc.max {
			t.Errorf("%s: GPU plugin speedup %.2f outside [%.1f, %.1f]", tc.p.Name, sp, tc.min, tc.max)
		}
	}
}

func TestSummitCPUPluginDoesNotHelp(t *testing.T) {
	// §IX-A: "for Summit only gpu-based plugin improves the performance".
	m := mustModel(t, core.DeepCAM)
	base := simulate(t, platform.Summit(), m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	cpu := simulate(t, platform.Summit(), m, core.Plugin, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	if cpu.Node > base.Node {
		t.Errorf("Summit CPU plugin (%.0f) should not beat baseline (%.0f)", cpu.Node, base.Node)
	}
	gpu := simulate(t, platform.Summit(), m, core.Plugin, pipeline.GPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	if gpu.Node <= base.Node {
		t.Error("Summit GPU plugin should beat baseline")
	}
}

func TestSummitBaselineBeatsCoriAtBatch4(t *testing.T) {
	// §IX-A: "At batch size of 4, the 6-V100 Summit node outperforms an
	// 8-V100 Cori node, while expected performance should be around 75%".
	m := mustModel(t, core.DeepCAM)
	s := simulate(t, platform.Summit(), m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	c := simulate(t, platform.CoriV100(), m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	if s.Node <= c.Node {
		t.Errorf("Summit baseline node (%.0f) should beat Cori-V100 (%.0f)", s.Node, c.Node)
	}
}

func TestCoriPluginsBothImprove(t *testing.T) {
	// §IX-A: "for Cori-based experiments, both cpu-based and gpu-based
	// plugin improves the performance".
	m := mustModel(t, core.DeepCAM)
	for _, p := range []platform.Platform{platform.CoriV100(), platform.CoriA100()} {
		base := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
		cpu := simulate(t, p, m, core.Plugin, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
		gpu := simulate(t, p, m, core.Plugin, pipeline.GPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
		if cpu.Node <= base.Node {
			t.Errorf("%s: CPU plugin (%.0f) should beat baseline (%.0f)", p.Name, cpu.Node, base.Node)
		}
		if gpu.Node <= cpu.Node {
			t.Errorf("%s: GPU plugin (%.0f) should beat CPU plugin (%.0f)", p.Name, gpu.Node, cpu.Node)
		}
	}
}

func TestDeepCAMLargeSetSlowdown(t *testing.T) {
	// §IX-A: the baseline "suffers a significant slowdown ... for a large
	// dataset" — the large set no longer fits host memory.
	m := mustModel(t, core.DeepCAM)
	p := platform.CoriV100()
	small := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, DeepCAMSmallPerNode, true, 4, 1)
	large := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, DeepCAMLargePerNode, true, 4, 1)
	if small.ReadLevel != iosim.HostMem {
		t.Error("small set should cache in host memory")
	}
	if large.ReadLevel != iosim.NVMe {
		t.Error("large staged set should read from NVMe")
	}
	if large.Node >= small.Node {
		t.Error("large set should be slower than small")
	}
	// Unstaged large is worse still (1.2-2.4x staging effect band, loosely).
	unstaged := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, DeepCAMLargePerNode, false, 4, 1)
	eff := large.Node / unstaged.Node
	if eff < 1.2 || eff > 3.0 {
		t.Errorf("staging effect %.2f outside the paper band", eff)
	}
}

func TestCosmoGzipSlowdown(t *testing.T) {
	// §IX-B: "the use of gzipped formatting reduces throughput by up to
	// 1.5x" — decompression offsets the reduced IO.
	m := mustModel(t, core.CosmoFlow)
	for _, p := range platform.All() {
		base := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, CosmoSmallPerGPU*p.GPUsPerNode, true, 4, 1)
		gz := simulate(t, p, m, core.Gzip, pipeline.CPUPlugin, CosmoSmallPerGPU*p.GPUsPerNode, true, 4, 1)
		slow := base.Node / gz.Node
		if slow < 1.05 || slow > 1.7 {
			t.Errorf("%s: gzip slowdown %.2f outside (1.05, 1.7)", p.Name, slow)
		}
	}
}

func TestCosmoPluginSpeedups(t *testing.T) {
	// §IX-B small set: Summit 5-8x, Cori 3-4x (we accept slightly wider).
	m := mustModel(t, core.CosmoFlow)
	for _, tc := range []struct {
		p        platform.Platform
		min, max float64
	}{
		{platform.Summit(), 4.0, 9.0},
		{platform.CoriV100(), 2.5, 5.5},
		{platform.CoriA100(), 2.5, 6.5},
	} {
		n := CosmoSmallPerGPU * tc.p.GPUsPerNode
		base := simulate(t, tc.p, m, core.Baseline, pipeline.CPUPlugin, n, true, 4, 1)
		plug := simulate(t, tc.p, m, core.Plugin, pipeline.GPUPlugin, n, true, 4, 1)
		sp := Speedup(plug, base)
		if sp < tc.min || sp > tc.max {
			t.Errorf("%s: cosmo plugin speedup %.2f outside [%.1f, %.1f]", tc.p.Name, sp, tc.min, tc.max)
		}
	}
}

func TestCosmoBaselineFlatWithBatch(t *testing.T) {
	// §IX-B: "the base case does not change significantly with batch size".
	m := mustModel(t, core.CosmoFlow)
	p := platform.CoriV100()
	n := CosmoSmallPerGPU * p.GPUsPerNode
	b1 := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, n, true, 1, 1)
	b8 := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, n, true, 8, 1)
	if r := b8.Node / b1.Node; r > 1.3 {
		t.Errorf("baseline varies %.2fx across batch sizes; should be flat", r)
	}
}

func TestCosmoLargeSetStagingAndCaching(t *testing.T) {
	// Fig 11: staging improves Cori by up to ~1.5x; Summit stays within
	// ~10% because the large set still fits Summit's 512 GB.
	m := mustModel(t, core.CosmoFlow)
	cv := platform.CoriV100()
	n := CosmoLargePerGPU * cv.GPUsPerNode
	staged := simulate(t, cv, m, core.Baseline, pipeline.CPUPlugin, n, true, 4, 1)
	unstaged := simulate(t, cv, m, core.Baseline, pipeline.CPUPlugin, n, false, 4, 1)
	eff := staged.Node / unstaged.Node
	if eff < 1.2 || eff > 1.9 {
		t.Errorf("Cori-V100 staging effect %.2f, paper ~1.5", eff)
	}
	s := platform.Summit()
	ns := CosmoLargePerGPU * s.GPUsPerNode
	sStaged := simulate(t, s, m, core.Baseline, pipeline.CPUPlugin, ns, true, 4, 1)
	sUnstaged := simulate(t, s, m, core.Baseline, pipeline.CPUPlugin, ns, false, 4, 1)
	if d := sStaged.Node / sUnstaged.Node; d > 1.10 {
		t.Errorf("Summit staging effect %.2f, paper within 10%%", d)
	}
}

func TestCosmoLargeSetOrderOfMagnitude(t *testing.T) {
	// §IX-B: "The speedup for the large dataset is up to an order of
	// magnitude."
	m := mustModel(t, core.CosmoFlow)
	best := 0.0
	for _, p := range platform.All() {
		n := CosmoLargePerGPU * p.GPUsPerNode
		base := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, n, false, 4, 1)
		plug := simulate(t, p, m, core.Plugin, pipeline.GPUPlugin, n, false, 4, 1)
		if sp := Speedup(plug, base); sp > best {
			best = sp
		}
	}
	if best < 6 || best > 16 {
		t.Errorf("best large-set speedup %.1f, paper ~10x", best)
	}
}

func TestHeadlines(t *testing.T) {
	h, err := Headlines(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if h.DeepCAMSmallSetSpeedup < 2.0 || h.DeepCAMSmallSetSpeedup > 5.0 {
		t.Errorf("DeepCAM small-set speedup %.1f, paper up to ~3x", h.DeepCAMSmallSetSpeedup)
	}
	if h.DeepCAMCachingAmplifiedMax < h.DeepCAMSmallSetSpeedup {
		t.Error("sweep max should be at least the small-set max")
	}
	if h.CosmoMaxSpeedup < 6.0 || h.CosmoMaxSpeedup > 16.0 {
		t.Errorf("CosmoFlow max speedup %.1f, paper up to ~10x", h.CosmoMaxSpeedup)
	}
	if h.GzipWorstSlowdown < 1.1 || h.GzipWorstSlowdown > 1.8 {
		t.Errorf("gzip worst slowdown %.2f, paper up to ~1.5x", h.GzipWorstSlowdown)
	}
}

func TestFig9BreakdownShape(t *testing.T) {
	rows, err := Fig9(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Fig9 rows = %d, want 6", len(rows))
	}
	byKey := map[string]BreakdownRow{}
	for _, r := range rows {
		byKey[r.Platform+"/"+r.Variant] = r
	}
	// Plugin removes most of the host CPU preprocessing (Fig 9's point).
	base := byKey["Cori-V100/base"]
	plug := byKey["Cori-V100/gpu-plugin"]
	if plug.Stages.CPU > base.Stages.CPU/3 {
		t.Errorf("plugin CPU stage %.1fms not much below base %.1fms",
			1e3*plug.Stages.CPU, 1e3*base.Stages.CPU)
	}
	// And the H2D transfer shrinks.
	if plug.Stages.H2D >= base.Stages.H2D {
		t.Error("plugin H2D should shrink vs base")
	}
}

func TestFig12BreakdownShape(t *testing.T) {
	rows, err := Fig12(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]BreakdownRow{}
	for _, r := range rows {
		byKey[r.Platform+"/"+r.Variant] = r
	}
	// Fig 12: "performance is dominated by the CPU preprocessing activities
	// for the baseline".
	base := byKey["Cori-V100/base"]
	if name, _ := base.Stages.Bottleneck(); name != "cpu" {
		t.Errorf("cosmo baseline bound by %s, want cpu", name)
	}
	// gzip makes the CPU stage worse.
	gz := byKey["Cori-V100/gzip"]
	if gz.Stages.CPU <= base.Stages.CPU {
		t.Error("gzip should increase CPU stage")
	}
	// The data movement cost is higher on Cori than Summit (PCIe vs NVLink).
	if byKey["Cori-V100/base"].Stages.H2D <= byKey["Summit/base"].Stages.H2D {
		t.Error("Cori H2D should exceed Summit's (PCIe3 vs NVLink)")
	}
}

func TestFig5Analysis(t *testing.T) {
	res, err := Fig5(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatal("rows")
	}
	for _, r := range res.Rows {
		if r.UniqueValues < 20 {
			t.Errorf("sample %d: %d unique values", r.Sample, r.UniqueValues)
		}
		if r.UniqueGroups <= r.UniqueValues {
			t.Errorf("sample %d: groups %d <= values %d", r.Sample, r.UniqueGroups, r.UniqueValues)
		}
		if r.Alpha <= 0 {
			t.Errorf("sample %d: power-law alpha %.2f", r.Sample, r.Alpha)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	t1 := TableI()
	for _, want := range []string{"Summit", "Cori-V100", "Cori-A100", "NVLink", "15.7", "312", "24.3"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t2 := TableII()
	for _, want := range []string{"TF 2.5", "PT 1.10", "2.11.4", "1.9.0"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestThroughputFormatting(t *testing.T) {
	rows, err := Fig10(testScale)
	if err != nil {
		t.Fatal(err)
	}
	SortRows(rows)
	out := FormatThroughput("FIG 10", rows)
	if !strings.Contains(out, "gpu-plug/s") || !strings.Contains(out, "Summit") {
		t.Error("throughput table formatting")
	}
	// 3 platforms x 2 staging x 4 batches.
	if len(rows) != 24 {
		t.Errorf("Fig10 rows = %d, want 24", len(rows))
	}
}

func TestSimulateValidation(t *testing.T) {
	m := mustModel(t, core.DeepCAM)
	if _, err := Simulate(Scenario{Platform: platform.Summit(), Model: m, Batch: 0, SamplesPerNode: 1}); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := Simulate(Scenario{Platform: platform.Summit(), Model: m, Batch: 1, SamplesPerNode: 0}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Simulate(Scenario{
		Platform: platform.Summit(), Model: m, Enc: core.Gzip,
		Plugin: pipeline.GPUPlugin, Batch: 1, SamplesPerNode: 1,
	}); err == nil {
		t.Error("GPU decode of gzip accepted")
	}
}

func TestDecodeStrategyAblation(t *testing.T) {
	row, err := DecodeStrategyAblation(testScale, platform.CoriV100())
	if err != nil {
		t.Fatal(err)
	}
	if row.ImprovementPct <= 0 {
		t.Errorf("hierarchical strategy should improve: %+v", row)
	}
}

func TestColdEpochReadsFromStorage(t *testing.T) {
	m := mustModel(t, core.CosmoFlow)
	p := platform.Summit()
	n := CosmoSmallPerGPU * p.GPUsPerNode
	cold := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, n, true, 4, 0)
	warm := simulate(t, p, m, core.Baseline, pipeline.CPUPlugin, n, true, 4, 1)
	if cold.ReadLevel != iosim.NVMe || warm.ReadLevel != iosim.HostMem {
		t.Errorf("levels: cold %v warm %v", cold.ReadLevel, warm.ReadLevel)
	}
	if cold.Node > warm.Node {
		t.Error("cold epoch should not be faster")
	}
}

func TestKernelSimCompare(t *testing.T) {
	rows, err := KernelSimCompare(testScale, platform.CoriV100())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	hier, naive := rows[0], rows[1]
	if hier.Strategy != "hierarchical" || naive.Strategy != "naive" {
		t.Fatalf("strategies: %+v", rows)
	}
	if hier.KernelMs >= naive.KernelMs {
		t.Error("hierarchical should be faster in the DES too")
	}
	if hier.Occupancy <= 0 || hier.Occupancy > 1 {
		t.Errorf("occupancy %g out of (0,1]", hier.Occupancy)
	}
}

func TestScaleOutProjection(t *testing.T) {
	m := mustModel(t, core.DeepCAM)
	sc := Scenario{
		Platform: platform.Summit(), Model: m, Enc: core.Plugin,
		Plugin: pipeline.GPUPlugin, SamplesPerNode: DeepCAMSmallPerNode,
		Staged: true, Batch: 4, Epoch: 1,
	}
	rows, err := ScaleOut(sc, []int{1, 2, 8, 64, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Efficiency != 1 {
		t.Errorf("1-node efficiency %g, want 1", rows[0].Efficiency)
	}
	// Throughput must grow with nodes, efficiency must not increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput <= rows[i-1].Throughput {
			t.Errorf("throughput not increasing at %d nodes", rows[i].Nodes)
		}
		if rows[i].Efficiency > rows[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency increased at %d nodes", rows[i].Nodes)
		}
	}
	// Large rings erode efficiency but must stay sane.
	last := rows[len(rows)-1]
	if last.Efficiency <= 0.2 || last.Efficiency > 1 {
		t.Errorf("512-node efficiency %.2f implausible", last.Efficiency)
	}
	if _, err := ScaleOut(sc, []int{0}); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestScaleOutFormatting(t *testing.T) {
	m := mustModel(t, core.CosmoFlow)
	sc := Scenario{
		Platform: platform.CoriV100(), Model: m, Enc: core.Plugin,
		Plugin: pipeline.GPUPlugin, SamplesPerNode: CosmoSmallPerGPU * 8,
		Staged: true, Batch: 4, Epoch: 1,
	}
	rows, err := ScaleOut(sc, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatScaleOut("scaling", rows)
	if !strings.Contains(out, "efficiency") || !strings.Contains(out, "nodes") {
		t.Error("formatting")
	}
}

func TestTimeToSolution(t *testing.T) {
	cosmo := synthetic.DefaultCosmoConfig()
	cosmo.Dim = 8
	cfg := train.Config{Samples: 8, Batch: 4, Epochs: 12, Seed: 2, LR: 0.01, Warmup: 2}
	rs, err := TimeToSolution(testScale, []platform.Platform{platform.CoriV100()}, 0.9, cosmo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.EpochsBase <= 0 || res.EpochsPlugin <= 0 {
		t.Fatalf("epochs not found: %+v", res)
	}
	// Convergence preserved: epoch counts within 2x of each other.
	if res.EpochsPlugin > 2*res.EpochsBase || res.EpochsBase > 2*res.EpochsPlugin {
		t.Errorf("epoch counts diverge: %d vs %d", res.EpochsBase, res.EpochsPlugin)
	}
	// The plugin must win end to end.
	if res.Speedup <= 1 {
		t.Errorf("TTS speedup %.2f, want > 1", res.Speedup)
	}
	// Unreachable target errors out.
	if _, err := TimeToSolution(testScale, []platform.Platform{platform.CoriV100()}, 1e-9, cosmo, cfg); err == nil {
		t.Error("unreachable target accepted")
	}
}

// Speedup returns a's node throughput over b's.
func Speedup(a, b StepResult) float64 {
	if b.Node == 0 {
		return 0
	}
	return a.Node / b.Node
}
