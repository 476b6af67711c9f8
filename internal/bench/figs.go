package bench

import (
	"fmt"
	"sort"
	"strings"

	"scipp/internal/core"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/stats"
	"scipp/internal/synthetic"
	"scipp/internal/train"
)

// Dataset assignments of §IX ("a smaller 1536 samples per node case ...
// the bigger data set is 8x larger"; CosmoFlow "two datasets sizes
// consisting of 128 and 2048 samples per GPU").
const (
	DeepCAMSmallPerNode = 1536
	DeepCAMLargePerNode = 12288
	CosmoSmallPerGPU    = 128
	CosmoLargePerGPU    = 2048
)

// TableI formats the system-architecture table.
func TableI() string {
	ps := platform.All()
	var b strings.Builder
	row := func(label string, f func(p platform.Platform) string) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, p := range ps {
			fmt.Fprintf(&b, " %14s", f(p))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "TABLE I: SYSTEM ARCHITECTURE FOR EVALUATED SYSTEMS\n")
	row("", func(p platform.Platform) string { return p.Name })
	row("Host Processor (CPU)", func(p platform.Platform) string { return p.CPU.Name })
	row("CPU Freq (GHz)", func(p platform.Platform) string { return fmt.Sprintf("%.2f", p.CPU.FreqGHz) })
	row("Host Memory (GB)", func(p platform.Platform) string { return fmt.Sprint(p.HostMemGB) })
	row("CPU-GPU Interconnect", func(p platform.Platform) string { return string(p.Link.Kind) })
	row("GPU", func(p platform.Platform) string { return p.GPU.Name })
	row("GPUs per node", func(p platform.Platform) string { return fmt.Sprint(p.GPUsPerNode) })
	row("L2 Cache (MB)", func(p platform.Platform) string { return fmt.Sprint(p.GPU.L2MB) })
	row("SM", func(p platform.Platform) string { return fmt.Sprint(p.GPU.SMs) })
	row("Mem Capacity (GB)", func(p platform.Platform) string { return fmt.Sprint(p.GPU.MemGB) })
	row("BW to GPU Mem (TB/s)", func(p platform.Platform) string { return fmt.Sprintf("%.1f", p.GPU.HBMTBs) })
	row("GPU FP32 TF/s", func(p platform.Platform) string { return fmt.Sprintf("%.1f", p.GPU.FP32TFs) })
	row("Tensorcore TF/s", func(p platform.Platform) string { return fmt.Sprintf("%.0f", p.GPU.TensorTFs) })
	row("NVMe Capacity (TB)", func(p platform.Platform) string { return fmt.Sprintf("%.1f", p.Storage.NVMeTB) })
	row("NVMe Read BW (GiB/s)", func(p platform.Platform) string { return fmt.Sprintf("%.1f", p.Storage.NVMeGBs) })
	return b.String()
}

// TableII formats the software-environment table analog.
func TableII() string {
	ps := platform.All()
	keys := []string{"framework.cosmoflow", "framework.deepcam", "python", "horovod", "cuda", "cudnn", "nccl", "dali", "gcc"}
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: SOFTWARE ENVIRONMENT (modeled stack metadata)\n")
	fmt.Fprintf(&b, "%-20s", "")
	for _, p := range ps {
		fmt.Fprintf(&b, " %12s", p.Name)
	}
	b.WriteByte('\n')
	for _, k := range keys {
		fmt.Fprintf(&b, "%-20s", k)
		for _, p := range ps {
			v := p.Software[k]
			if v == "" {
				v = "-"
			}
			fmt.Fprintf(&b, " %12s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig5Row is the per-sample content analysis of one CosmoFlow sample.
type Fig5Row struct {
	Sample       int
	UniqueValues int     // Fig 5b
	UniqueGroups int     // Fig 5c
	Alpha        float64 // Fig 5a power-law exponent
	R2           float64 // goodness of the log-log fit
}

// Fig5Result aggregates the Fig 5 analysis.
type Fig5Result struct {
	Dim  int
	Rows []Fig5Row
}

// Fig5 analyzes nsamples synthetic CosmoFlow samples at the given dimension
// (paper: 128), reproducing the three panels of Fig 5.
func Fig5(dim, nsamples int) (*Fig5Result, error) {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = dim
	res := &Fig5Result{Dim: dim}
	for i := 0; i < nsamples; i++ {
		s, err := synthetic.GenerateCosmo(cfg, i)
		if err != nil {
			return nil, err
		}
		all := make([]int16, 0, 4*len(s.Channels[0]))
		for c := range s.Channels {
			all = append(all, s.Channels[c]...)
		}
		freqs := stats.UniqueInt16Freq(all)
		fit := stats.FitPowerLaw(freqs)
		res.Rows = append(res.Rows, Fig5Row{
			Sample:       i,
			UniqueValues: len(freqs),
			UniqueGroups: stats.UniqueGroups(s.Channels),
			Alpha:        fit.Alpha,
			R2:           fit.R2,
		})
	}
	return res, nil
}

// ThroughputRow is one bar group of Figs 8/10/11: node throughput per
// pipeline variant for one (platform, set, staging, batch) cell.
type ThroughputRow struct {
	Platform string
	Set      string // "small" / "large"
	Staged   bool
	Batch    int
	// Node throughput in samples/s per variant; zero when a variant does
	// not apply.
	Base, GzipVar, CPUPlugin, GPUPlugin float64
	Bound                               map[string]string // variant -> binding stage
}

func stagedName(s bool) string {
	if s {
		return "staged"
	}
	return "unstaged"
}

func simulateVariants(p platform.Platform, m AppModel, samplesPerNode int, staged bool, batch int, withGzip, withCPUPlugin bool) (ThroughputRow, error) {
	row := ThroughputRow{
		Platform: p.Name, Staged: staged, Batch: batch,
		Bound: make(map[string]string),
	}
	run := func(enc core.Encoding, plug pipeline.Plugin) (StepResult, error) {
		return Simulate(Scenario{
			Platform: p, Model: m, Enc: enc, Plugin: plug,
			SamplesPerNode: samplesPerNode, Staged: staged, Batch: batch, Epoch: 1,
		})
	}
	base, err := run(core.Baseline, pipeline.CPUPlugin)
	if err != nil {
		return row, err
	}
	row.Base = base.Node
	row.Bound["base"] = base.Bound
	if withGzip {
		gz, err := run(core.Gzip, pipeline.CPUPlugin)
		if err != nil {
			return row, err
		}
		row.GzipVar = gz.Node
		row.Bound["gzip"] = gz.Bound
	}
	if withCPUPlugin {
		cp, err := run(core.Plugin, pipeline.CPUPlugin)
		if err != nil {
			return row, err
		}
		row.CPUPlugin = cp.Node
		row.Bound["cpu-plugin"] = cp.Bound
	}
	gp, err := run(core.Plugin, pipeline.GPUPlugin)
	if err != nil {
		return row, err
	}
	row.GPUPlugin = gp.Node
	row.Bound["gpu-plugin"] = gp.Bound
	return row, nil
}

// Fig8 sweeps the DeepCAM throughput experiment: three platforms x
// {small, large} x {staged, unstaged} x batch {1, 2, 4, 8}, comparing the
// baseline with the CPU and GPU decoder plugins.
func Fig8(scale float64) ([]ThroughputRow, error) {
	m, err := Calibrate(core.DeepCAM, scale)
	if err != nil {
		return nil, err
	}
	var rows []ThroughputRow
	for _, p := range platform.All() {
		for _, set := range []struct {
			name    string
			samples int
		}{{"small", DeepCAMSmallPerNode}, {"large", DeepCAMLargePerNode}} {
			for _, staged := range []bool{true, false} {
				for _, batch := range []int{1, 2, 4, 8} {
					row, err := simulateVariants(p, m, set.samples, staged, batch, false, true)
					if err != nil {
						return nil, err
					}
					row.Set = set.name
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// Fig10 sweeps the CosmoFlow small-set throughput experiment (128
// samples/GPU, batch 1-8), comparing baseline, gzip, and the GPU plugin.
func Fig10(scale float64) ([]ThroughputRow, error) {
	return cosmoSweep(scale, "small", CosmoSmallPerGPU)
}

// Fig11 sweeps the CosmoFlow large-set experiment (2048 samples/GPU), where
// staging and caching decide the outcome.
func Fig11(scale float64) ([]ThroughputRow, error) {
	return cosmoSweep(scale, "large", CosmoLargePerGPU)
}

func cosmoSweep(scale float64, set string, perGPU int) ([]ThroughputRow, error) {
	m, err := Calibrate(core.CosmoFlow, scale)
	if err != nil {
		return nil, err
	}
	var rows []ThroughputRow
	for _, p := range platform.All() {
		for _, staged := range []bool{true, false} {
			for _, batch := range []int{1, 2, 4, 8} {
				row, err := simulateVariants(p, m, perGPU*p.GPUsPerNode, staged, batch, true, false)
				if err != nil {
					return nil, err
				}
				row.Set = set
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatThroughput renders throughput rows as an aligned table.
func FormatThroughput(title string, rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-6s %-9s %5s %10s %10s %11s %11s\n",
		"platform", "set", "staging", "batch", "base/s", "gzip/s", "cpu-plug/s", "gpu-plug/s")
	for _, r := range rows {
		gz, cp := "-", "-"
		if r.GzipVar > 0 {
			gz = fmt.Sprintf("%.0f", r.GzipVar)
		}
		if r.CPUPlugin > 0 {
			cp = fmt.Sprintf("%.0f", r.CPUPlugin)
		}
		fmt.Fprintf(&b, "%-10s %-6s %-9s %5d %10.0f %10s %11s %11.0f\n",
			r.Platform, r.Set, stagedName(r.Staged), r.Batch, r.Base, gz, cp, r.GPUPlugin)
	}
	return b.String()
}

// BreakdownRow is one bar of Figs 9/12: the per-sample stage profile of one
// pipeline variant.
type BreakdownRow struct {
	Platform string
	Variant  string
	Stages   StageTimes
	Node     float64
}

// Fig9 produces the DeepCAM time breakdown (Cori V100 and A100, small
// staged set, batch 4) for baseline, CPU plugin and GPU plugin.
func Fig9(scale float64) ([]BreakdownRow, error) {
	m, err := Calibrate(core.DeepCAM, scale)
	if err != nil {
		return nil, err
	}
	var rows []BreakdownRow
	for _, p := range []platform.Platform{platform.CoriV100(), platform.CoriA100()} {
		for _, v := range []struct {
			name string
			enc  core.Encoding
			plug pipeline.Plugin
		}{
			{"base", core.Baseline, pipeline.CPUPlugin},
			{"cpu-plugin", core.Plugin, pipeline.CPUPlugin},
			{"gpu-plugin", core.Plugin, pipeline.GPUPlugin},
		} {
			r, err := Simulate(Scenario{
				Platform: p, Model: m, Enc: v.enc, Plugin: v.plug,
				SamplesPerNode: DeepCAMSmallPerNode, Staged: true, Batch: 4, Epoch: 1,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, BreakdownRow{Platform: p.Name, Variant: v.name, Stages: r.Stages, Node: r.Node})
		}
	}
	return rows, nil
}

// Fig12 produces the CosmoFlow time breakdown (Summit and Cori-V100, small
// staged set, batch 4) for baseline, gzip and the GPU plugin.
func Fig12(scale float64) ([]BreakdownRow, error) {
	m, err := Calibrate(core.CosmoFlow, scale)
	if err != nil {
		return nil, err
	}
	var rows []BreakdownRow
	for _, p := range []platform.Platform{platform.Summit(), platform.CoriV100()} {
		for _, v := range []struct {
			name string
			enc  core.Encoding
			plug pipeline.Plugin
		}{
			{"base", core.Baseline, pipeline.CPUPlugin},
			{"gzip", core.Gzip, pipeline.CPUPlugin},
			{"gpu-plugin", core.Plugin, pipeline.GPUPlugin},
		} {
			r, err := Simulate(Scenario{
				Platform: p, Model: m, Enc: v.enc, Plugin: v.plug,
				SamplesPerNode: CosmoSmallPerGPU * p.GPUsPerNode, Staged: true, Batch: 4, Epoch: 1,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, BreakdownRow{Platform: p.Name, Variant: v.name, Stages: r.Stages, Node: r.Node})
		}
	}
	return rows, nil
}

// FormatBreakdown renders breakdown rows.
//
//lint:ignore deadcode reference formatter: TestRenderBreakdownMatchesFormat pins the metrics-backed RenderBreakdown to it
func FormatBreakdown(title string, rows []BreakdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-11s %8s %8s %8s %9s %9s %9s %9s\n",
		"platform", "variant", "read", "cpu", "h2d", "gpu-dec", "gpu-comp", "allred", "node/s")
	for _, r := range rows {
		s := r.Stages
		fmt.Fprintf(&b, "%-10s %-11s %7.2fm %7.2fm %7.2fm %8.2fm %8.2fm %8.2fm %9.0f\n",
			r.Platform, r.Variant,
			1e3*s.Read, 1e3*s.CPU, 1e3*s.H2D, 1e3*s.GPUDecode, 1e3*s.GPUCompute, 1e3*s.AllReduce, r.Node)
	}
	return b.String()
}

// ConvergenceSeries is one loss trajectory.
type ConvergenceSeries struct {
	Label  string
	Losses []float64
}

// Fig6 runs the DeepCAM convergence comparison (base vs decoded samples,
// identical schedule/seed) on a reduced-scale model and returns the two
// per-step loss series.
func Fig6(samples, batch, steps int, seed uint64) ([]ConvergenceSeries, error) {
	clim := synthetic.DefaultClimateConfig()
	clim.Channels = 8
	clim.Height = 48
	clim.Width = 72
	cfg := train.Config{Samples: samples, Batch: batch, Steps: steps, Seed: seed, LR: 0.03, Warmup: 8}
	base, err := train.DeepCAM(clim, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Encoded = true
	dec, err := train.DeepCAM(clim, cfg)
	if err != nil {
		return nil, err
	}
	return []ConvergenceSeries{{Label: "base", Losses: base}, {Label: "decoded", Losses: dec}}, nil
}

// Fig7Result summarizes the 16-repetition CosmoFlow convergence experiment.
type Fig7Result struct {
	Epochs int
	// Base and Decoded hold per-repetition loss series.
	Base, Decoded []ConvergenceSeries
}

// Fig7 runs `reps` repetitions (paper: 16) of CosmoFlow training for each
// sample class, per the MLPerf HPC multi-run submission rules.
func Fig7(samples, batch, epochs, reps int, baseSeed uint64) (*Fig7Result, error) {
	cosmo := synthetic.DefaultCosmoConfig()
	cosmo.Dim = 16
	out := &Fig7Result{Epochs: epochs}
	for rep := 0; rep < reps; rep++ {
		cfg := train.Config{
			Samples: samples, Batch: batch, Epochs: epochs,
			Seed: baseSeed + uint64(rep)*7919, LR: 0.01, Warmup: 4,
		}
		base, err := train.CosmoFlow(cosmo, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Encoded = true
		dec, err := train.CosmoFlow(cosmo, cfg)
		if err != nil {
			return nil, err
		}
		out.Base = append(out.Base, ConvergenceSeries{Label: fmt.Sprintf("base-%d", rep), Losses: base})
		out.Decoded = append(out.Decoded, ConvergenceSeries{Label: fmt.Sprintf("decoded-%d", rep), Losses: dec})
	}
	return out, nil
}

// FinalLossStats returns mean and std of the final losses across series.
func FinalLossStats(series []ConvergenceSeries) (mean, std float64) {
	finals := make([]float64, 0, len(series))
	for _, s := range series {
		if len(s.Losses) > 0 {
			finals = append(finals, s.Losses[len(s.Losses)-1])
		}
	}
	sm := stats.Summarize(finals)
	return sm.Mean, sm.Std
}

// Headline summarizes the paper's headline speedups over the full sweep.
type Headline struct {
	// DeepCAMSmallSetSpeedup is the max GPU-plugin speedup over the
	// memory-resident small-set sweep — the configuration the paper's "up
	// to 3x" headline (Fig 8 caption) corresponds to.
	DeepCAMSmallSetSpeedup float64
	// DeepCAMCachingAmplifiedMax is the sweep-wide max, which in this
	// reproduction exceeds the paper's because our encoded large set fits
	// host memory while the baseline's does not (the §II caching argument
	// compounding with the IO reduction; see EXPERIMENTS.md).
	DeepCAMCachingAmplifiedMax float64
	CosmoMaxSpeedup            float64 // paper: up to ~10x
	GzipWorstSlowdown          float64 // paper: up to ~1.5x slower than base
	DeepCAMBestPlatform        string
	CosmoBestPlatform          string
}

// Headlines computes the max plugin speedups and worst gzip slowdown across
// the Fig 8/10/11 sweeps.
func Headlines(scale float64) (Headline, error) {
	var h Headline
	f8, err := Fig8(scale)
	if err != nil {
		return h, err
	}
	for _, r := range f8 {
		if r.Base > 0 {
			sp := r.GPUPlugin / r.Base
			if sp > h.DeepCAMCachingAmplifiedMax {
				h.DeepCAMCachingAmplifiedMax = sp
			}
			if r.Set == "small" && sp > h.DeepCAMSmallSetSpeedup {
				h.DeepCAMSmallSetSpeedup = sp
				h.DeepCAMBestPlatform = r.Platform
			}
		}
	}
	f10, err := Fig10(scale)
	if err != nil {
		return h, err
	}
	f11, err := Fig11(scale)
	if err != nil {
		return h, err
	}
	for _, r := range append(f10, f11...) {
		if r.Base > 0 {
			if sp := r.GPUPlugin / r.Base; sp > h.CosmoMaxSpeedup {
				h.CosmoMaxSpeedup = sp
				h.CosmoBestPlatform = r.Platform
			}
			if r.GzipVar > 0 {
				if sl := r.Base / r.GzipVar; sl > h.GzipWorstSlowdown {
					h.GzipWorstSlowdown = sl
				}
			}
		}
	}
	return h, nil
}

// AblationRow compares a design choice.
type AblationRow struct {
	Name           string
	BaselineValue  float64
	AlternateValue float64
	ImprovementPct float64
	Unit           string
}

// DecodeStrategyAblation compares the hierarchical warp assignment against
// the naive thread-per-line mapping for the DeepCAM decode kernel (§VI).
//
//lint:ignore deadcode no suite table prints this ablation; queued for deletion with its tests (ROADMAP item 9)
func DecodeStrategyAblation(scale float64, p platform.Platform) (AblationRow, error) {
	m, err := Calibrate(core.DeepCAM, scale)
	if err != nil {
		return AblationRow{}, err
	}
	hier := gpusim.Device{GPU: p.GPU, Strategy: gpusim.Hierarchical}
	naive := gpusim.Device{GPU: p.GPU, Strategy: gpusim.NaiveThreadPerChunk}
	th := hier.KernelTime(m.DecodeWorkload)
	tn := naive.KernelTime(m.DecodeWorkload)
	return AblationRow{
		Name:           "gpu-decode-strategy(hierarchical vs naive)",
		BaselineValue:  tn * 1e3,
		AlternateValue: th * 1e3,
		ImprovementPct: 100 * (tn - th) / tn,
		Unit:           "ms/kernel",
	}, nil
}

// KernelSimAblation runs the warp-level kernel simulator over the DeepCAM
// decode workload under both strategies, reporting makespan and warp
// occupancy — the detailed version of DecodeStrategyAblation.
type KernelSimAblation struct {
	Strategy  string
	KernelMs  float64
	Occupancy float64
}

// KernelSimCompare evaluates both decode strategies with the DES.
func KernelSimCompare(scale float64, p platform.Platform) ([]KernelSimAblation, error) {
	m, err := Calibrate(core.DeepCAM, scale)
	if err != nil {
		return nil, err
	}
	var out []KernelSimAblation
	for _, strat := range []gpusim.Strategy{gpusim.Hierarchical, gpusim.NaiveThreadPerChunk} {
		sim := &gpusim.KernelSim{Device: &gpusim.Device{GPU: p.GPU, Strategy: strat}}
		t, err := sim.Run(m.DecodeWorkload)
		if err != nil {
			return nil, err
		}
		occ, err := sim.Occupancy(m.DecodeWorkload)
		if err != nil {
			return nil, err
		}
		out = append(out, KernelSimAblation{
			Strategy: strat.String(), KernelMs: t * 1e3, Occupancy: occ,
		})
	}
	return out, nil
}

// SortRows orders throughput rows deterministically for golden output.
func SortRows(rows []ThroughputRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.Staged != b.Staged {
			return a.Staged
		}
		return a.Batch < b.Batch
	})
}
