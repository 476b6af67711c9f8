// Tier-level fault injector: the failure modes that attack a whole storage
// tier of the staging hierarchy rather than individual samples or the
// pipeline's machinery. A TierInjector attaches to a pipeline.SampleCache
// through SetTierFault and fails, stalls, or kills the NVMe spill tier —
// the cache survives only through its per-tier health tracking, failover to
// HostMem-only degraded mode, and recovery probing. Injection decisions are
// pure functions of (Seed, sample) plus a deterministic access-count death
// schedule, so the log reconciles exactly against CacheStats.
package fault

import (
	"fmt"
	"sync"

	"scipp/internal/trace"
	"scipp/internal/xrand"
)

// tierDecisionMix derives the per-sample decision stream of the tier
// injector, independent of the other injectors' streams so tier faults can
// be layered over data, stage, and cache-rot populations on one dataset.
const tierDecisionMix = 0xA24BAED4963EE407

// TierFaultConfig sets the NVMe-tier fault probabilities and the tier's
// death schedule. IOErr and Degraded are per-sample draws (at most one kind
// per sample, deterministically from Seed); death is scheduled in access
// counts so a sweep can kill the tier mid-epoch reproducibly.
type TierFaultConfig struct {
	// Seed drives every injection decision; same seed, same faults.
	Seed uint64
	// IOErr is the probability a sample's NVMe accesses fail (flaky cell).
	IOErr float64
	// IOErrEvents is how many accesses of an IOErr sample fail before the
	// (re-admitted) sample's media behaves again (default 1).
	IOErrEvents int
	// Degraded is the probability a sample's NVMe accesses are delivered
	// only after a stall (degraded-bandwidth mode).
	Degraded float64
	// DegradedSeconds is the stall injected on Degraded accesses (default
	// 0.01), absorbed by Clock when it implements trace.Sleeper.
	DegradedSeconds float64
	// DieAfter, when positive, kills the whole tier after that many
	// non-probe accesses: every later access fails until recovery.
	DieAfter int
	// ReviveAfterProbes, when positive, brings a dead tier back on its
	// Nth recovery probe (earlier probes fail); 0 leaves it dead forever.
	ReviveAfterProbes int
	// Clock, when non-nil and a trace.Sleeper, absorbs Degraded stalls.
	Clock trace.Clock
}

func (c TierFaultConfig) withDefaults() TierFaultConfig {
	if c.IOErrEvents <= 0 {
		c.IOErrEvents = 1
	}
	if c.DegradedSeconds <= 0 {
		c.DegradedSeconds = 0.01
	}
	return c
}

// decide returns the tier fault assigned to sample i, if any. It is a pure
// function of (Seed, i).
func (c TierFaultConfig) decide(i int) (Kind, bool) {
	rng := xrand.New(c.Seed ^ (uint64(i)+1)*tierDecisionMix)
	u := rng.Float64()
	if u < c.IOErr {
		return TierIO, true
	}
	u -= c.IOErr
	if u < c.Degraded {
		return TierSlow, true
	}
	return 0, false
}

// TierInjector implements pipeline.TierFault: it interposes on every
// NVMe-tier access of a SampleCache, failing chosen samples' accesses,
// stalling others, and killing the whole tier on its death schedule. Every
// failed non-probe access is logged (TierIO and TierDead entries reconcile
// one-to-one against CacheStats.NVMeErrors; TierSlow entries are stalls,
// not errors). Probe outcomes are not logged: probes are the cache's own
// health machinery, and their counts are already in CacheStats.TierProbes.
type TierInjector struct {
	cfg TierFaultConfig
	log *log

	mu       sync.Mutex
	accesses int // non-probe accesses so far, drives DieAfter
	dead     bool
	probes   int // failed probes since death, drives ReviveAfterProbes
	revived  bool
}

// WrapTier returns a TierInjector configured by cfg; attach it with
// pipeline.SampleCache.SetTierFault.
func WrapTier(cfg TierFaultConfig) *TierInjector {
	return &TierInjector{cfg: cfg.withDefaults(), log: newLog()}
}

// Access implements pipeline.TierFault. Probe calls (index -1) succeed once
// the revive schedule has elapsed and fail while the tier is dead; regular
// accesses advance the death schedule and then apply the per-sample fault,
// if any.
func (ti *TierInjector) Access(index int, write bool) error {
	if index < 0 {
		return ti.probe()
	}
	ti.mu.Lock()
	ti.accesses++
	if !ti.dead && !ti.revived && ti.cfg.DieAfter > 0 && ti.accesses > ti.cfg.DieAfter {
		ti.dead = true
		ti.probes = 0
	}
	dead := ti.dead
	ti.mu.Unlock()
	if dead {
		access := ti.log.bumpSample(index)
		ti.log.record(Injection{Sample: index, Access: access, Kind: TierDead, Rank: -1, Step: -1})
		return fmt.Errorf("fault: nvme tier dead: sample %d access failed", index)
	}
	kind, ok := ti.cfg.decide(index)
	if !ok {
		return nil
	}
	switch kind {
	case TierIO:
		access := ti.log.bumpSample(index)
		if access <= ti.cfg.IOErrEvents {
			ti.log.record(Injection{Sample: index, Access: access, Kind: TierIO, Rank: -1, Step: -1})
			return fmt.Errorf("fault: sample %d: injected nvme tier I/O error (access %d)", index, access)
		}
	case TierSlow:
		access := ti.log.bumpSample(index)
		ti.log.record(Injection{Sample: index, Access: access, Kind: TierSlow, Rank: -1, Step: -1})
		if s, isSleeper := ti.cfg.Clock.(trace.Sleeper); isSleeper {
			s.Sleep(ti.cfg.DegradedSeconds)
		}
	}
	return nil
}

// probe is a recovery probe against the tier: it fails while the tier is
// dead, except the ReviveAfterProbes-th probe, which finds the device back
// in service and succeeds.
func (ti *TierInjector) probe() error {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if !ti.dead {
		return nil
	}
	ti.probes++
	if ti.cfg.ReviveAfterProbes > 0 && ti.probes >= ti.cfg.ReviveAfterProbes {
		ti.dead = false
		ti.revived = true // a revived tier does not die again
		return nil
	}
	return fmt.Errorf("fault: nvme tier dead: probe failed")
}

// Log returns the injection events so far, in canonical order.
func (ti *TierInjector) Log() []Injection { return ti.log.snapshot() }
