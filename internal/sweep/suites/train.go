package suites

import (
	"fmt"

	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/sweep"
	"scipp/internal/synthetic"
	"scipp/internal/trace"
	"scipp/internal/train"
)

// Train sweeps elastic data-parallel training under seeded rank faults: a
// fault-free baseline, then crash, hang and slow-rank scenarios on the
// DeepCAM or CosmoFlow miniature. Every crash/hang injection must map to
// exactly one eviction of that rank at the injected step, and per-epoch
// losses stand in for the digest: slow must equal clean and hang must equal
// crash bit for bit (same survivor set, same reduction order), and clean
// and crash must not move when the sample cache is toggled.
var Train = Suite{
	Name: "train",
	Defaults: Params{App: "cosmoflow", Ranks: 4, Samples: 32, Batch: 8, Epochs: 6, Seed: 1,
		CrashStep: 3, CheckpointEvery: 2},
	Check: checkTrain,
	Cells: trainCells,
	Columns: []sweep.Column{
		sweep.ObsColumn("alive", 6, "alive"),
		sweep.ObsColumn("evicted", 8, "evictions"),
		{Head: "injected", Width: 9, Value: func(r sweep.Result) string {
			return fmt.Sprint(r.Obs["inj.crash"] + r.Obs["inj.hang"] + r.Obs["inj.slow"])
		}},
		sweep.ObsColumn("ckpts", 6, "ckpts"),
		sweep.ObsColumn("strag", 6, "stragglers"),
		{Head: "final-loss", Width: 11, Value: func(r sweep.Result) string { return fmt.Sprintf("%.4f", r.Info["final_loss"]) }},
	},
}

// rankScenario is one rank-fault scenario: the fault it injects into the
// last rank, if any, and the detection it arms.
type rankScenario struct {
	name              string
	crash, hang, slow bool
	// timeout enables deadline-based failure detection (needed for hangs).
	// It must exceed worst-case arrival skew between ranks (one
	// shard-size-difference of compute), or healthy ranks get evicted.
	timeout float64
	// slowFactor enables straggler flagging; off elsewhere because at
	// millisecond step times natural jitter exceeds any sane threshold.
	slowFactor float64
}

var (
	cleanRun = rankScenario{name: "clean"}
	crashRun = rankScenario{name: "crash", crash: true}
	hangRun  = rankScenario{name: "hang", hang: true, timeout: 0.25}
	slowRun  = rankScenario{name: "slow", slow: true, slowFactor: 3}
)

func checkTrain(p Params) error {
	if p.App != "deepcam" && p.App != "cosmoflow" {
		return fmt.Errorf("unknown -app %q (deepcam or cosmoflow)", p.App)
	}
	if p.Ranks <= 1 {
		return fmt.Errorf("need at least 2 ranks for an elastic sweep")
	}
	if p.Batch <= 0 || p.Samples < p.Batch {
		return fmt.Errorf("-batch %d does not fit -samples %d", p.Batch, p.Samples)
	}
	if steps := p.Samples / p.Batch * p.Epochs; p.CrashStep >= steps {
		return fmt.Errorf("crash step %d beyond the run's %d steps", p.CrashStep, steps)
	}
	return nil
}

func trainCells(p Params) []sweep.Cell {
	// Caching never changes loss: delivered batches are bit-identical
	// either way, so the self-referenced scenarios twin with the other
	// cache setting.
	toggled := p
	toggled.CacheMB = 64
	if p.CacheMB > 0 {
		toggled.CacheMB = 0
	}
	cell := func(sc rankScenario, p Params, suffix string, twin *sweep.Cell) *sweep.Cell {
		return &sweep.Cell{
			Name:   p.App + "/" + sc.name + suffix,
			Run:    func() (sweep.Result, error) { return runTrain(sc, p) },
			Twin:   twin,
			Expect: trainExpect(sc, p, twin != nil),
		}
	}
	clean := cell(cleanRun, p, "", cell(cleanRun, toggled, "/cache-toggled", nil))
	crash := cell(crashRun, p, "", cell(crashRun, toggled, "/cache-toggled", nil))
	return []sweep.Cell{*clean, *crash, *cell(hangRun, p, "", crash), *cell(slowRun, p, "", clean)}
}

func runTrain(sc rankScenario, p Params) (sweep.Result, error) {
	ckpts := &train.CheckpointLog{}
	cfg := train.Config{
		Samples:         p.Samples,
		Batch:           p.Batch,
		Epochs:          p.Epochs,
		Seed:            p.Seed,
		LR:              0.01,
		Warmup:          2,
		CheckpointEvery: p.CheckpointEvery,
	}
	if p.CacheMB > 0 {
		cfg.Cache = pipeline.CacheConfig{HostMemBytes: int64(p.CacheMB) << 20}
	}
	if p.CheckpointEvery > 0 {
		cfg.Checkpoints = ckpts
	}
	ecfg := train.ElasticConfig{
		Ranks:      p.Ranks,
		Clock:      trace.NewWallClock(),
		Timeout:    sc.timeout,
		SlowFactor: sc.slowFactor,
	}
	last := p.Ranks - 1
	switch {
	case sc.crash:
		ecfg.RankFaults = &fault.RankConfig{CrashAt: map[int]int{last: p.CrashStep}}
	case sc.hang:
		ecfg.RankFaults = &fault.RankConfig{HangAt: map[int]int{last: p.CrashStep}}
	case sc.slow:
		// Stall a rank on the last step so the straggler flag is still
		// raised when the run ends.
		ecfg.RankFaults = &fault.RankConfig{SlowAt: map[int]int{last: p.Samples/p.Batch*p.Epochs - 1}, SlowSeconds: 0.5}
	}
	if ecfg.RankFaults != nil {
		ecfg.RankFaults.Seed = p.Seed + 7
	}
	var res *train.Result
	var err error
	if p.App == "deepcam" {
		clim := synthetic.DefaultClimateConfig()
		clim.Channels, clim.Height, clim.Width = 4, 16, 16
		cfg.LR = 0.05
		res, err = train.ElasticDeepCAM(clim, cfg, ecfg)
	} else {
		cosmo := synthetic.DefaultCosmoConfig()
		// Keep per-step compute in the milliseconds so the hang scenario's
		// deadline dwarfs the arrival skew of uneven shards.
		cosmo.Dim = 8
		res, err = train.ElasticCosmoFlow(cosmo, cfg, ecfg)
	}
	if err != nil {
		return sweep.Result{}, err
	}
	o := observeElastic(res)
	o["ckpts"] = int64(ckpts.Len())
	info := map[string]float64{}
	if n := len(res.Losses); n > 0 {
		info["final_loss"] = res.Losses[n-1]
	}
	return sweep.Result{Obs: o, Info: info}, nil
}

// observeElastic flattens an elastic run. evictions.matched counts the crash/hang
// injections that map to an eviction of that rank absorbed at the injected
// step — the pairing evictionExpect reconciles.
func observeElastic(res *train.Result) sweep.Obs {
	o := sweep.Obs{
		"epochs":            int64(len(res.Losses)),
		"alive":             int64(len(res.Alive)),
		"evictions":         int64(len(res.Evictions)),
		"stragglers":        int64(len(res.Stragglers)),
		"inj.crash":         sweep.Count(res.RankLog, fault.CrashRank),
		"inj.hang":          sweep.Count(res.RankLog, fault.HangRank),
		"inj.slow":          sweep.Count(res.RankLog, fault.SlowRank),
		"evictions.matched": 0,
		"digest.losses":     int64(sweep.DigestFloats(res.Losses)),
	}
	for _, in := range res.RankLog {
		if in.Kind != fault.CrashRank && in.Kind != fault.HangRank {
			continue
		}
		for i, ev := range res.Evictions {
			if ev.Rank == in.Rank && res.EvictionSteps[i] == in.Step {
				o["evictions.matched"]++
				break
			}
		}
	}
	return o
}

// evictionExpect cross-checks the eviction record against the injector's
// ground truth: every crash/hang injection has its eviction, and nothing
// was evicted that was not injected. Slow injections evict nobody.
var evictionExpect = []sweep.Expect{
	sweep.SumEq("evictions.matched", "inj.crash", "inj.hang"),
	sweep.SumEq("evictions", "inj.crash", "inj.hang"),
}

func trainExpect(sc rankScenario, p Params, twinned bool) []sweep.Expect {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	ckpts := int64(0)
	if p.CheckpointEvery > 0 {
		ckpts = int64(p.Epochs / p.CheckpointEvery)
	}
	table := append([]sweep.Expect{
		sweep.Eq("epochs", int64(p.Epochs), "the run finishes every epoch"),
		sweep.Eq("ckpts", ckpts, "one checkpoint per cadence"),
		sweep.Eq("alive", int64(p.Ranks)-b2i(sc.crash || sc.hang), "the ring is rebuilt over the survivors"),
		sweep.Eq("inj.crash", b2i(sc.crash), "the scenario injects exactly its fault"),
		sweep.Eq("inj.hang", b2i(sc.hang), "the scenario injects exactly its fault"),
		sweep.Eq("inj.slow", b2i(sc.slow), "the scenario injects exactly its fault"),
		sweep.Mirror("stragglers", "inj.slow"),
	}, evictionExpect...)
	if twinned {
		table = append(table, sweep.Mirror("digest.losses", "twin.digest.losses"))
	}
	return table
}
