package suites

import (
	"errors"
	"fmt"

	"scipp/internal/dataserve"
	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/sweep"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// Overload is the chaos sweep for the data service's overload protection:
// tenant mix (duo, crowd) x fault mix (clean, rogue flood, NVMe tier death,
// poison sample, everything at once) x protection policy (bare queue,
// deadline shedding, circuit breakers, both). Every cell runs one rogue
// tenant against one or more well-behaved victims and proves graceful
// degradation instead of collapse: the victims digest bit-identically to
// their clean twins with p99 dispatch lag inside the fairness bound, the
// rogue is contained by the active policy, and every Shed / Breaker /
// Poison / TierFailover counter reconciles exactly across tenant stats,
// service stats, the obs registry and the injector logs.
var Overload = Suite{
	Name:     "overload",
	Defaults: Params{Samples: 24, Epochs: 2, Seed: 1},
	Check: func(p Params) error {
		if p.Samples < 8 {
			return fmt.Errorf("-samples must be >= 8")
		}
		return nil
	},
	Cells: overloadCells,
	Columns: []sweep.Column{
		{Head: "victims", Width: 8, Value: func(r sweep.Result) string { return fmt.Sprintf("%.0f", r.Info["victim_samples"]) }},
		sweep.ObsColumn("rogue", 8, "rogue.samples"),
		sweep.ObsColumn("shed", 6, "svc.shed"),
		sweep.ObsColumn("brkrej", 7, "svc.breaker.rejects"),
		sweep.ObsColumn("trips", 7, "rogue.breaker.trips"),
		sweep.ObsColumn("poison", 7, "svc.poisoned"),
		sweep.ObsColumn("tierfo", 7, "cache.tier.failovers"),
		{Head: "p99", Width: 5, Value: func(r sweep.Result) string { return fmt.Sprintf("%.0f", r.Info["victim_p99_max"]) }},
	},
}

const (
	// victimWeight outweighs the rogue's implicit weight 1 so DRR keeps the
	// victims' dispatch share — and therefore their lag bound — under flood.
	victimWeight = 4
	// p99Bound is the fairness bound on a duo victim's p99 dispatch lag;
	// crowdP99Bound loosens it for the crowd mix, where a victim's burst
	// also waits behind two other victims' DRR shares.
	p99Bound      = 16
	crowdP99Bound = 32
	// victimDeadline is the victims' admission deadline under shed policies:
	// far above their lag bound, so a victim is never shed (shedding a victim
	// would silently drop samples and break bit-identity). rogueDeadline is
	// tight enough that the rogue's backlog sheds.
	victimDeadline = 64
	rogueDeadline  = 4
)

// policy is the protection-policy axis.
type policy struct {
	name          string
	shed, breaker bool
}

// overloadMix is the fault-mix axis: the rogue's dataset fails every read,
// slowly (flood); the victims' NVMe cache tier dies mid-epoch (tierDeath);
// one sample of the victims' dataset is corrupt, PoisonK 2 (poison).
type overloadMix struct {
	name                     string
	flood, tierDeath, poison bool
}

func overloadCells(p Params) []sweep.Cell {
	var cells []sweep.Cell
	for _, tm := range []struct {
		name    string
		victims int
	}{{"duo", 1}, {"crowd", 3}} {
		for _, fm := range []overloadMix{
			{name: "clean"},
			{name: "flood", flood: true},
			{name: "tierdeath", tierDeath: true},
			{name: "poison", poison: true},
			{name: "overload", flood: true, tierDeath: true, poison: true},
		} {
			// Under poison the twin walks around the bad sample the same
			// way the quarantine-skipping victim does.
			twinName, skip := "twin/"+tm.name, -1
			if fm.poison {
				twinName, skip = twinName+"/poison", badSample(p.Samples)
			}
			twin := tenantTwin(twinName, overloadSet, append(schedules(tenantNames("v", tm.victims), p.Seed, skip),
				schedule{"rogue", rogueSeed(p.Seed), -1}), p)
			for _, pol := range []policy{
				{name: "queue"},
				{name: "shed", shed: true},
				{name: "breaker", breaker: true},
				{name: "full", shed: true, breaker: true},
			} {
				cells = append(cells, sweep.Cell{
					Name:   tm.name + "/" + fm.name + "/" + pol.name,
					Run:    func() (sweep.Result, error) { return runOverload(tm.victims, fm, pol, p) },
					Twin:   twin,
					Expect: overloadExpect(tm.victims, fm, pol, p),
				})
			}
		}
	}
	return cells
}

// overloadSet is the victims' dataset (and the rogue's, when not flooding).
var overloadSet = domain{build: cosmoSet(8)}

// errBadMedia is the flooding rogue's permanent read failure.
var errBadMedia = errors.New("injected: bad media")

// badDataset fails every read after a short stall: the rogue's storage is
// both broken and slow, so its requests burn worker time on top of failing
// — the overload the protection policies must contain.
type badDataset struct {
	n     int
	delay float64 // seconds
	clock trace.Sleeper
}

func (d badDataset) Len() int { return d.n }

func (d badDataset) Blob(int) ([]byte, error) {
	d.clock.Sleep(d.delay)
	return nil, errBadMedia
}

func (d badDataset) Label(int) (*tensor.Tensor, error) { return nil, errBadMedia }

// rogueSeed is the rogue's shuffle seed, shared with its twin.
func rogueSeed(seed uint64) uint64 { return seed + 999 }

// badSample is the schedule slot poisoned under the poison mixes.
func badSample(samples int) int { return samples / 2 }

// rogueDeadlined reports whether the rogue runs under an admission
// deadline. Shed-only cells contain the rogue by deadline; when the breaker
// is also armed (full) the breaker owns rogue containment — arming both
// would race the shed pass against the error budget and make the trip
// count depend on goroutine interleaving.
func rogueDeadlined(pol policy) bool { return pol.shed && !pol.breaker }

// runOverload executes one cell.
func runOverload(victims int, fm overloadMix, pol policy, p Params) (sweep.Result, error) {
	good, format, err := overloadSet.build(p.Samples)
	if err != nil {
		return sweep.Result{}, err
	}
	if fm.poison {
		good.Blobs[badSample(p.Samples)] = good.Blobs[badSample(p.Samples)][:3]
	}
	reg := obs.NewRegistry()
	svc := dataserve.New(dataserve.Config{Workers: 4, Obs: reg})
	defer svc.Close()

	goodCache := pipeline.CacheConfig{HostMemBytes: 64 << 20}
	if fm.tierDeath {
		// A host tier a few samples wide forces demotions into the NVMe
		// tier, so the injector has traffic to kill mid-epoch.
		goodCache = pipeline.CacheConfig{HostMemBytes: 16 << 10, NVMeBytes: 64 << 20, TierFailK: 2}
	}
	err = svc.Register(dataserve.DatasetConfig{Name: "good", Data: good, Format: format, Cache: goodCache, PoisonK: 2})
	if err != nil {
		return sweep.Result{}, err
	}
	var tier *fault.TierInjector
	if fm.tierDeath {
		// Pure tier death, no flaky-cell IOErr noise: the failover topology
		// stays deterministic (exactly one failover, no recovery) so the
		// table can be exact; flaky-cell interleavings are covered by the
		// pipeline tier tests.
		tier = fault.WrapTier(fault.TierFaultConfig{Seed: p.Seed + 7, DieAfter: 12})
		svc.Cache("good").SetTierFault(tier)
	}

	// The rogue gets its own dataset and cache — the bulkhead: under flood
	// it is broken and slow, otherwise a private clean copy.
	var rogueData pipeline.Dataset = badDataset{n: p.Samples, delay: 100e-6, clock: trace.NewWallClock().(trace.Sleeper)}
	if !fm.flood {
		if rogueData, _, err = overloadSet.build(p.Samples); err != nil {
			return sweep.Result{}, err
		}
	}
	err = svc.Register(dataserve.DatasetConfig{
		Name: "rogue", Data: rogueData, Format: format,
		Cache: pipeline.CacheConfig{HostMemBytes: 64 << 20},
	})
	if err != nil {
		return sweep.Result{}, err
	}

	var brk dataserve.BreakerConfig
	if pol.breaker {
		// Backoff far past the run: a tripped rogue stays cut off, and
		// BreakerTrips reconciles to exactly one.
		brk = dataserve.BreakerConfig{Threshold: 4, Window: 16, Backoff: 1000}
	}
	names := tenantNames("v", victims)
	jobs := make([]job, 0, victims+1)
	for i, name := range names {
		cfg := dataserve.TenantConfig{
			Name: name, Dataset: "good", Batch: tenantBatch,
			Shuffle: true, Seed: tenantSeed(p.Seed, i), Inflight: 8,
			Weight: victimWeight, MaxBadSamples: 2 * p.Epochs, Breaker: brk,
		}
		if pol.shed {
			cfg.DeadlineLag = victimDeadline
		}
		jobs = append(jobs, job{cfg: cfg, strict: true})
	}
	rogue := dataserve.TenantConfig{
		Name: "rogue", Dataset: "rogue", Batch: tenantBatch, Shuffle: true,
		Seed: rogueSeed(p.Seed), Inflight: 16, Weight: 1,
		MaxBadSamples: p.Samples * p.Epochs, Breaker: brk,
	}
	if rogueDeadlined(pol) {
		rogue.DeadlineLag = rogueDeadline
	}
	jobs = append(jobs, job{cfg: rogue})

	o := sweep.Obs{}
	stats, _, err := runTenants(o, svc, reg, jobs, p.Epochs)
	if err != nil {
		return sweep.Result{}, err
	}
	info := map[string]float64{}
	for i, name := range names {
		o["digest."+name] = int64(stats[i].digest)
		o[name+".p99"] = stats[i].QueueWaitP99
		info["victim_samples"] += float64(stats[i].Samples)
		info["victim_p99_max"] = max(info["victim_p99_max"], float64(stats[i].QueueWaitP99))
	}
	if !fm.flood && !rogueDeadlined(pol) {
		// The rogue's digest is comparable only when it delivers its whole
		// schedule: a flooding rogue delivers nothing and a deadlined one
		// loses whichever requests the shed pass caught.
		o["digest.rogue"] = int64(stats[victims].digest)
	}
	cache := svc.Cache("good").Stats()
	o["cache.nvme.errors"] = cache.NVMeErrors
	o["cache.tier.failovers"] = cache.TierFailovers
	o["cache.tier.recoveries"] = cache.TierRecoveries
	var tierLog []fault.Injection
	if tier != nil {
		tierLog = tier.Log()
	}
	o["inj.tier.io"] = sweep.Count(tierLog, fault.TierIO)
	o["inj.tier.dead"] = sweep.Count(tierLog, fault.TierDead)
	return sweep.Result{Obs: o, Info: info}, nil
}

func overloadExpect(victims int, fm overloadMix, pol policy, p Params) []sweep.Expect {
	names := tenantNames("v", victims)
	per := int64(p.Samples * p.Epochs)
	victimWant, victimSkips := per, int64(0)
	if fm.poison {
		victimWant, victimSkips = int64((p.Samples-1)*p.Epochs), int64(p.Epochs)
	}
	bound := int64(p99Bound)
	if victims > 1 {
		bound = crowdP99Bound
	}

	// Victims: bit-identical to their clean twins, inside the lag bound, and
	// untouched by every protection mechanism.
	var table []sweep.Expect
	for _, v := range names {
		table = append(table,
			sweep.Mirror("digest."+v, "twin.digest."+v),
			sweep.Eq(v+".samples", victimWant, "victim lost samples"),
			sweep.Eq(v+".skips", victimSkips, "victims skip exactly the poisoned sample"),
			sweep.Eq(v+".shed", 0, "victim shed"),
			sweep.Eq(v+".errors", 0, "victim saw a terminal error"),
			sweep.Eq(v+".breaker.trips", 0, "victim breaker tripped"),
			sweep.Eq(v+".breaker.probes", 0, "victim breaker probed"),
			sweep.Eq(v+".breaker.rejects", 0, "victim breaker rejected"),
			sweep.Eq(v+".detached.slow", 0, "victim detached"),
			sweep.AtMost(v+".p99", bound, "victim p99 dispatch lag exceeds the fairness bound"))
	}

	// Rogue: contained according to mix and policy.
	switch {
	case !fm.flood:
		table = append(table,
			sweep.Eq("rogue.breaker.trips", 0, "rogue breaker tripped on a clean dataset"),
			sweep.Expect{Left: []string{"rogue.samples", "rogue.shed"}, Op: sweep.EQ, Const: per,
				Why: "every rogue request is delivered or shed"})
		if !rogueDeadlined(pol) {
			table = append(table, sweep.Mirror("digest.rogue", "twin.digest.rogue"))
		}
	case pol.breaker:
		table = append(table,
			sweep.Eq("rogue.samples", 0, "rogue delivered off a 100%-failing dataset"),
			sweep.Eq("rogue.breaker.trips", 1, "backoff outlives the run: exactly one trip"),
			sweep.AtLeast("rogue.breaker.rejects", 1, "tripped rogue breaker rejected nothing"),
			sweep.Eq("rogue.breaker.probes", 0, "rogue breaker probed inside the backoff"))
	default:
		table = append(table,
			sweep.Eq("rogue.samples", 0, "rogue delivered off a 100%-failing dataset"),
			sweep.Expect{Left: []string{"rogue.skips", "rogue.shed"}, Op: sweep.EQ, Const: per,
				Why: "every flooding request is skipped or shed"})
	}
	if !rogueDeadlined(pol) {
		table = append(table, sweep.Eq("rogue.shed", 0, "rogue shed without a deadline"))
	}
	if !pol.breaker {
		table = append(table,
			sweep.Eq("rogue.breaker.trips", 0, "breaker trip without a breaker policy"),
			sweep.Eq("svc.breaker.rejects", 0, "breaker reject without a breaker policy"))
	}
	all := append(append([]string(nil), names...), "rogue")
	table = append(table,
		sweep.SumEq("svc.shed", keys(all, ".shed")...),
		sweep.SumEq("svc.breaker.rejects", keys(all, ".breaker.rejects")...))

	// Poison quarantine: the bad sample is blacklisted exactly once as soon
	// as PoisonK distinct victims exist to vote, and the failed-serve ledger
	// balances: every bad-sample serve was a decode failure, a failed
	// single-flight join, or a blacklist fast-fail.
	wantPoisoned := int64(0)
	if fm.poison && victims >= 2 {
		wantPoisoned = 1
	}
	table = append(table, sweep.Eq("svc.poisoned", wantPoisoned, "blacklist once PoisonK distinct victims voted"))
	if fm.poison {
		table = append(table, sweep.AtMost("svc.poison.rejects", int64(victims*p.Epochs), "poison rejects exceed bad-sample serves"))
		if wantPoisoned == 1 {
			table = append(table, sweep.AtLeast("svc.poison.rejects", int64(victims*(p.Epochs-1)), "blacklist never took effect"))
		}
	} else {
		table = append(table, sweep.Eq("svc.poison.rejects", 0, "poison reject without a poison mix"))
	}

	// Tier fault domain: cache failure accounting reconciles one-to-one
	// with the injector log, and the dead tier failed over exactly once.
	failovers := int64(0)
	if fm.tierDeath {
		failovers = 1
		table = append(table, sweep.AtLeast("inj.tier.dead", 1, "tier never died: DieAfter too high for this load"))
	}
	table = append(table,
		sweep.SumEq("cache.nvme.errors", "inj.tier.io", "inj.tier.dead"),
		sweep.Eq("cache.tier.failovers", failovers, "exactly one failover per tier death"),
		sweep.Eq("cache.tier.recoveries", 0, "tier recovered with revival disabled"))

	// Dispatch ledger: every dispatched request was delivered or skipped —
	// shed and breaker-rejected requests never reached a worker.
	table = append(table,
		sweep.Expect{Left: []string{"svc.dispatched"}, Op: sweep.EQ,
			Right: append(keys(all, ".samples"), keys(all, ".skips")...),
			Why:   "a protection path consumed a worker slot"},
		sweep.Eq("svc.detached.slow", 0, "watchdog detached a draining tenant"))
	return append(table, ledgerExpect(all)...)
}
