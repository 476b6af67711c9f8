// Rank-level fault injection: the failure modes of the *training* path —
// crashed, hung, and throttled ranks — driven by the same deterministic
// seeded machinery and the same queryable injection log as the data-path
// injectors, so a chaos run's evictions reconcile exactly against the log.
package fault

import (
	"scipp/internal/trace"
	"scipp/internal/xrand"
)

// RankConfig sets per-rank fault plans. Faults come from two sources that
// compose: explicit pins (CrashAt/HangAt/SlowAt name exact rank→step plans,
// the tool for acceptance tests) and seeded draws (per-(rank,step)
// probabilities, pure functions of Seed). A rank draws at most one kind per
// step; the probabilities must sum to at most 1.
type RankConfig struct {
	// Seed drives every probabilistic decision; same seed, same faults.
	Seed uint64
	// CrashRate is the per-step probability a rank fail-stops.
	CrashRate float64
	// HangRate is the per-step probability a rank silently wedges.
	HangRate float64
	// SlowRate is the per-step probability a rank stalls for SlowSeconds.
	SlowRate float64
	// CrashAt pins rank -> step fail-stop plans; overrides seeded draws.
	CrashAt map[int]int
	// HangAt pins rank -> step hang plans; overrides seeded draws.
	HangAt map[int]int
	// SlowAt pins rank -> step stall plans; overrides seeded draws.
	SlowAt map[int]int
	// SlowSeconds is the stall injected on SlowRank faults (default 0.05).
	// It passes through Clock when it implements trace.Sleeper.
	SlowSeconds float64
	// Clock, when non-nil and a trace.Sleeper, absorbs SlowRank stalls.
	Clock trace.Clock
}

func (c RankConfig) withDefaults() RankConfig {
	if c.SlowSeconds <= 0 {
		c.SlowSeconds = 0.05
	}
	return c
}

// decide returns the fault assigned to (rank, step), if any: pinned plans
// first, then a seeded draw — a pure function of (Seed, rank, step), so
// neither scheduling nor retry order can change the fault pattern.
func (c RankConfig) decide(rank, step int) (Kind, bool) {
	if s, ok := c.CrashAt[rank]; ok && s == step {
		return CrashRank, true
	}
	if s, ok := c.HangAt[rank]; ok && s == step {
		return HangRank, true
	}
	if s, ok := c.SlowAt[rank]; ok && s == step {
		return SlowRank, true
	}
	if c.CrashRate <= 0 && c.HangRate <= 0 && c.SlowRate <= 0 {
		return 0, false
	}
	rng := xrand.New(c.Seed ^ (uint64(rank)+1)*0x9E3779B97F4A7C15 ^ (uint64(step)+1)*0xD1B54A32D192ED03)
	u := rng.Float64()
	for i, p := range [3]float64{c.CrashRate, c.HangRate, c.SlowRate} {
		if u < p {
			return CrashRank + Kind(i), true
		}
		u -= p
	}
	return 0, false
}

// RankInjector hands the elastic trainer its per-(rank,step) fault plan and
// records every fired fault in the canonical injection log.
type RankInjector struct {
	cfg RankConfig
	log *log
}

// NewRankInjector returns an injector over cfg.
func NewRankInjector(cfg RankConfig) *RankInjector {
	return &RankInjector{cfg: cfg.withDefaults(), log: newLog()}
}

// At returns the fault rank must suffer before executing step, logging it.
// SlowRank stalls are absorbed here (through the configured clock) before
// returning, mirroring the Latency data fault; CrashRank and HangRank are
// returned for the caller to act out, since only the training loop can
// fail-stop or wedge its own rank. Call At once per (rank, step): every
// call that hits a fault appends one log event.
func (ri *RankInjector) At(rank, step int) (Kind, bool) {
	kind, ok := ri.cfg.decide(rank, step)
	if !ok {
		return 0, false
	}
	ri.log.record(Injection{Sample: -1, Kind: kind, Rank: rank, Step: step})
	if kind == SlowRank {
		if s, isSleeper := ri.cfg.Clock.(trace.Sleeper); isSleeper {
			s.Sleep(ri.cfg.SlowSeconds)
		}
	}
	return kind, true
}

// Plan returns the fault for (rank, step) without logging or stalling —
// the read-only view for reconciling results against expectations.
//
//lint:ignore deadcode test oracle: the rank tests reconcile evictions against the planned faults with it
func (ri *RankInjector) Plan(rank, step int) (Kind, bool) {
	return ri.cfg.decide(rank, step)
}

// Log returns the injection events so far, in canonical order.
func (ri *RankInjector) Log() []Injection { return ri.log.snapshot() }
