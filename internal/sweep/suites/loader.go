package suites

import (
	"fmt"

	"scipp/internal/codec"
	"scipp/internal/codec/seriesfmt"
	"scipp/internal/core"
	"scipp/internal/fault"
	"scipp/internal/gpusim"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/sweep"
	"scipp/internal/synthetic"
	"scipp/internal/trace"
)

// Loader sweeps the self-healing stage DAG: fault mix (worker panics and
// stalls on the read stage, bit rot in the resident cache) x decode
// placement x cache configuration, over a small CosmoFlow set drained batch
// by batch, and over the scenario matrix — DeepCAM, CosmoFlow and the
// ragged weather archive drained as padded batches under the combined mix,
// each with a time-to-quality probe. Every faulted cell must digest
// bit-identically to its clean twin with the supervision counters and the
// quarantine tally reconciling exactly against the injector logs.
var Loader = Suite{
	Name:     "loader",
	Defaults: Params{Samples: 32, Epochs: 3, Seed: 1},
	Cells:    loaderCells,
	Columns: []sweep.Column{
		sweep.ObsColumn("decoded", 8, "delivered"),
		sweep.ObsColumn("panics", 7, "panics"),
		sweep.ObsColumn("stalls", 7, "stalls"),
		sweep.ObsColumn("quar", 7, "quar.cache"),
		sweep.ObsColumn("retry", 7, "retried"),
		{Head: "samples/s", Width: 10, Value: func(r sweep.Result) string { return fmt.Sprintf("%.0f", cleanInfo(r, "samples_per_s")) }},
		sweep.ObsColumn("ttq", 6, "ttq_steps"),
		{Head: "ttq_sec", Width: 9, Value: func(r sweep.Result) string { return fmt.Sprintf("%.4f", cleanInfo(r, "ttq_sec")) }},
		sweep.ObsColumn("digest", 17, "digest"),
	},
}

// cleanInfo reads a wall-clock figure off the clean twin when there is one:
// a faulted run's own timing is dominated by stall deadlines.
func cleanInfo(r sweep.Result, key string) float64 {
	if v, ok := r.Info["twin."+key]; ok {
		return v
	}
	return r.Info[key]
}

// domain is one workload: a dataset builder plus the format its blobs
// need. Padded domains are drained through NextPadded and probed; the
// weather domain is the ragged one, the two fixed-shape scenario domains
// exercise the degenerate path of the same padded iterator.
type domain struct {
	name   string
	padded bool
	build  func(samples int) (*pipeline.MemDataset, codec.Format, error)
}

// cosmoSet builds CosmoFlow LUT datasets of the given volume edge.
func cosmoSet(dim int) func(int) (*pipeline.MemDataset, codec.Format, error) {
	return func(n int) (*pipeline.MemDataset, codec.Format, error) {
		cfg := synthetic.DefaultCosmoConfig()
		cfg.Dim = dim
		ds, err := core.BuildCosmoDataset(cfg, n, core.Plugin)
		return ds, core.FormatFor(core.CosmoFlow, core.Plugin), err
	}
}

// chaosDomain is the small batch-drained set the fault-mix axis runs over;
// its cells are named after their mix alone.
var chaosDomain = domain{build: cosmoSet(8)}

var scenarioDomains = []domain{
	{name: "deepcam", padded: true, build: func(n int) (*pipeline.MemDataset, codec.Format, error) {
		cfg := synthetic.DefaultClimateConfig()
		cfg.Channels, cfg.Height, cfg.Width = 4, 24, 32
		cfg.Cyclones, cfg.Rivers = 1, 1
		ds, err := core.BuildClimateDataset(cfg, n, core.Plugin)
		return ds, core.FormatFor(core.DeepCAM, core.Plugin), err
	}},
	{name: "cosmoflow", padded: true, build: cosmoSet(16)},
	{name: "weather", padded: true, build: func(n int) (*pipeline.MemDataset, codec.Format, error) {
		cfg := synthetic.DefaultWeatherConfig()
		cfg.MaxLen = 96
		ds, err := core.BuildWeatherDataset(cfg, n)
		return ds, seriesfmt.Bounded(cfg.Channels, cfg.MaxLen), err
	}},
}

// loaderMix is one fault mixture: stage-fault probabilities on the read
// stage and the cache bit-rot probability (cached cells only).
type loaderMix struct {
	name                  string
	panicP, stall, bitRot float64
}

var (
	cleanLoaderMix = loaderMix{name: "clean"}
	allLoaderMix   = loaderMix{name: "all", panicP: 0.1, stall: 0.05, bitRot: 0.1}
)

// loaderCells enumerates fault mix x placement x cache over the batch-
// drained CosmoFlow set (bit-rot mixes skip uncached cells: nothing is
// resident to rot), then scenario domain x placement x cache under the
// combined mix.
func loaderCells(p Params) []sweep.Cell {
	plugins := []pipeline.Plugin{pipeline.CPUPlugin, pipeline.GPUPlugin}
	var cells []sweep.Cell
	for _, m := range []loaderMix{
		cleanLoaderMix,
		{name: "panic", panicP: 0.15},
		{name: "stall", stall: 0.08},
		{name: "bitrot", bitRot: 0.15},
		allLoaderMix,
	} {
		for _, plug := range plugins {
			for _, cached := range []bool{false, true} {
				if m.bitRot > 0 && !cached {
					continue
				}
				cells = append(cells, loaderCell(chaosDomain, m, plug, cached, p))
			}
		}
	}
	for _, d := range scenarioDomains {
		for _, plug := range plugins {
			for _, cached := range []bool{false, true} {
				cells = append(cells, loaderCell(d, allLoaderMix, plug, cached, p))
			}
		}
	}
	return cells
}

// loaderCell names the cell after its fault mix on the batch-drained set
// and after its domain in the scenario matrix, and twins every faulted
// cell with the clean run of the same domain, placement and cache.
func loaderCell(d domain, m loaderMix, plug pipeline.Plugin, cached bool, p Params) sweep.Cell {
	lead := m.name
	if d.name != "" {
		lead = d.name
		if m.name == "clean" {
			lead += "-clean"
		}
	}
	c := sweep.Cell{
		Name:   fmt.Sprintf("%s/%s/%s", lead, plug, cacheName(cached)),
		Run:    func() (sweep.Result, error) { return runLoader(d, m, plug, cached, p) },
		Expect: loaderExpect(d, m, p),
	}
	if m.name != "clean" {
		twin := loaderCell(d, cleanLoaderMix, plug, cached, p)
		c.Twin = &twin
	}
	return c
}

func cacheName(cached bool) string {
	if cached {
		return "cached"
	}
	return "uncached"
}

func loaderExpect(d domain, m loaderMix, p Params) []sweep.Expect {
	table := []sweep.Expect{
		sweep.Eq("delivered", int64(p.Samples*p.Epochs), "every scheduled sample is delivered"),
		sweep.Mirror("panics", "inj.panic"),
		sweep.Mirror("stalls", "inj.stall"),
		{Left: []string{"retried"}, Op: sweep.EQ, Right: []string{"inj.panic"},
			Why: "one retry per panic; stalls re-admit outside the retry budget"},
		sweep.Mirror("quar.cache", "inj.rot"),
		sweep.Mirror("quar.obs", "inj.rot"),
	}
	if m.name != "clean" {
		table = append(table,
			sweep.Expect{Left: []string{"inj.panic", "inj.stall", "inj.rot"}, Op: sweep.GE, Const: 1,
				Why: "the fault mix injected nothing"},
			sweep.Mirror("digest", "twin.digest"))
	}
	if d.padded {
		table = append(table,
			sweep.AtLeast("ttq_steps", 1, "the probe must take a step"),
			sweep.AtMost("ttq_steps", probeCap, "the probe is capped"))
		if m.name != "clean" {
			table = append(table, sweep.Mirror("ttq_steps", "twin.ttq_steps"))
		}
	}
	return table
}

// runLoader executes one cell: epochs full passes over the domain's
// dataset, digesting every delivered batch. Resilience and supervision are
// always armed, so clean and faulted runs share one config and the only
// difference between twins is the injectors. Epoch 0 is the warmup — it
// fills the cache and feeds the probe — and later epochs are timed.
func runLoader(d domain, m loaderMix, plug pipeline.Plugin, cached bool, p Params) (sweep.Result, error) {
	ds, format, err := d.build(p.Samples)
	if err != nil {
		return sweep.Result{}, err
	}
	// The watchdog runs on a virtual clock that only the stall injector
	// moves, by twice the deadline per wedge: host speed cannot make a slow
	// decode look like a stall, and every wedge passes the deadline. A cell
	// that injects stalls admits one sample at a time, so the wedged attempt
	// is the only one in flight when the clock moves and the watchdog flags
	// exactly the injected stalls.
	const deadline = 0.05
	clock := &trace.VirtualClock{}
	var injector *fault.StageInjector
	var pds pipeline.Dataset = ds
	if m.panicP > 0 || m.stall > 0 {
		injector = fault.WrapStage(ds, fault.StageFaultConfig{Seed: p.Seed + 3, Panic: m.panicP, Stall: m.stall,
			StallAdvance: 2 * deadline, Clock: clock})
		defer injector.Release() // unwedge abandoned workers so they exit
		pds = injector
	}
	reg := obs.NewRegistry()
	cfg := pipeline.Config{
		Format:     format,
		Plugin:     plug,
		Batch:      4,
		Shuffle:    true,
		Seed:       p.Seed,
		Resilience: pipeline.Resilience{MaxRetries: 2},
		Supervise: pipeline.SupervisorConfig{
			MaxRestarts:   256,
			StallDeadline: deadline,
			StallRestart:  true,
		},
		Clock: clock,
		Obs:   reg,
	}
	if m.stall > 0 {
		cfg.Prefetch = 1
	}
	if plug == pipeline.GPUPlugin {
		cfg.Device = gpusim.New(platform.Summit().GPU)
	}
	if cached {
		cfg.Cache = pipeline.CacheConfig{HostMemBytes: 64 << 20}
	}
	l, err := pipeline.New(pds, cfg)
	if err != nil {
		return sweep.Result{}, err
	}
	var ci *fault.CacheInjector
	if cached && m.bitRot > 0 {
		ci = fault.NewCacheInjector(fault.CacheFaultConfig{Seed: p.Seed + 5, BitRot: m.bitRot})
		l.Cache().SetTamper(ci)
	}

	o := sweep.Obs{}
	digest := sweep.FNVOffset
	var bestSPS float64
	var feats, targets [][]float64
	if d.padded {
		feats, targets = make([][]float64, p.Samples), make([][]float64, p.Samples)
	}
	for e := 0; e < p.Epochs; e++ {
		clock := trace.NewWallClock()
		served := 0
		it := l.Epoch(e)
		collect := func(pb *pipeline.PaddedBatch) error { return collectProbeRows(pb, feats, targets) }
		if e > 0 {
			collect = func(*pipeline.PaddedBatch) error { return nil }
		}
		for {
			n, err := drainOne(it, d.padded, &digest, collect)
			if err != nil {
				it.Close()
				return sweep.Result{}, fmt.Errorf("epoch %d: %w", e, err)
			}
			if n == 0 {
				break
			}
			served += n
		}
		// Keep the best single-epoch throughput: wall timings at this scale
		// are milliseconds, and the max over epochs is far less noisy than
		// the mean when the scheduler hiccups.
		if secs := clock.Now(); e > 0 && secs > 0 {
			bestSPS = max(bestSPS, float64(served)/secs)
		}
		st := it.Stats()
		o["delivered"] += int64(served)
		o["panics"] += int64(st.Panics)
		o["stalls"] += int64(st.Stalls)
		o["retried"] += int64(st.Retried)
	}
	o["digest"] = int64(digest)
	o["quar.obs"] = reg.Snapshot().Counter("pipeline.cache.quarantined")
	o["quar.cache"] = 0
	if c := l.Cache(); c != nil {
		o["quar.cache"] = c.Stats().Quarantined
	}
	var stageLog, rotLog []fault.Injection
	if injector != nil {
		stageLog = injector.Log()
	}
	if ci != nil {
		rotLog = ci.Log()
	}
	o["inj.panic"] = sweep.Count(stageLog, fault.StagePanic)
	o["inj.stall"] = sweep.Count(stageLog, fault.StageStall)
	o["inj.rot"] = sweep.Count(rotLog, fault.CacheBitRot)

	info := map[string]float64{"samples_per_s": bestSPS}
	if d.padded {
		// Time-to-quality: steps for the linear probe to cover 95% of its
		// achievable loss reduction, costed as the wall time to stream
		// steps x samples through preprocessing.
		steps := probeSteps(feats, targets)
		o["ttq_steps"] = int64(steps)
		if bestSPS > 0 {
			info["ttq_sec"] = float64(steps) * float64(p.Samples) / bestSPS
		}
	}
	return sweep.Result{Obs: o, Info: info}, nil
}

// drainOne takes the next batch off it — padded or plain — folds it into
// digest, releases it, and returns its size (0 at the end of the epoch).
func drainOne(it *pipeline.Iterator, padded bool, digest *uint64, collect func(*pipeline.PaddedBatch) error) (int, error) {
	if !padded {
		b, err := it.Next()
		if err != nil || b == nil {
			return 0, err
		}
		defer b.Release()
		*digest = sweep.DigestBatch(*digest, b)
		return b.Size(), nil
	}
	pb, err := it.NextPadded()
	if err != nil || pb == nil {
		return 0, err
	}
	defer pb.Release()
	*digest = sweep.DigestPadded(*digest, pb)
	return pb.Size(), collect(pb)
}
