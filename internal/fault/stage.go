// Stage- and cache-level fault injectors: the failure modes that attack the
// pipeline's own machinery rather than the bytes it moves. A StageInjector
// makes stage workers panic or wedge while they hold a sample — the loader
// survives only through its StageSupervisor and stall watchdog — and a
// CacheInjector rots samples after they were admitted to the staged sample
// cache, which only end-to-end cache integrity verification can catch.
// Injection decisions are pure functions of (Seed, sample), exactly like the
// data-path injectors, so the logs reconcile against pipeline counters.
package fault

import (
	"fmt"
	"sync"

	"scipp/internal/tensor"
	"scipp/internal/trace"
	"scipp/internal/xrand"
)

// stageDecisionMix and cacheDecisionMix derive the per-sample decision
// streams of the stage and cache injectors, independent of the data-path
// injector's streams so the fault populations can be layered on one dataset.
const (
	stageDecisionMix = 0x94D049BB133111EB
	cacheDecisionMix = 0xD6E8FEB86659FD93
)

// StageFaultConfig sets the per-sample stage-fault probabilities. Each
// sample draws at most one fault kind, deterministically from Seed, so
// Panic+Stall must sum to at most 1.
type StageFaultConfig struct {
	// Seed drives every injection decision; same seed, same faults.
	Seed uint64
	// Panic is the probability a sample's read panics the stage worker.
	Panic float64
	// Stall is the probability a sample's read wedges the stage worker.
	Stall float64
	// PanicEvents is how many accesses of a panicking sample crash before
	// the sample recovers (default 1) — a fresh attempt then succeeds, so
	// supervised retries restore bit-identical output.
	PanicEvents int
	// StallEvents is how many accesses of a stalling sample wedge before
	// the sample recovers (default 1).
	StallEvents int
	// StallSeconds bounds an injected stall on Clock when it implements
	// trace.Alarm (default: unbounded — the stall holds until Release).
	StallSeconds float64
	// StallAdvance, when positive and Clock is a trace.Sleeper, passes that
	// many seconds of Clock as each stall begins, before the wedge holds. On
	// a trace.VirtualClock nothing else moves, injected stalls are then the
	// only passage of time, so a watchdog on that clock sees a deadline
	// pass exactly when a stall was injected, however slow the host.
	StallAdvance float64
	// Clock, when non-nil and a trace.Alarm, bounds Stall wedges in time.
	Clock trace.Clock
}

func (c StageFaultConfig) withDefaults() StageFaultConfig {
	if c.PanicEvents <= 0 {
		c.PanicEvents = 1
	}
	if c.StallEvents <= 0 {
		c.StallEvents = 1
	}
	return c
}

// decide returns the stage fault assigned to sample i, if any. It is a pure
// function of (Seed, i).
func (c StageFaultConfig) decide(i int) (Kind, bool) {
	rng := xrand.New(c.Seed ^ (uint64(i)+1)*stageDecisionMix)
	u := rng.Float64()
	if u < c.Panic {
		return StagePanic, true
	}
	u -= c.Panic
	if u < c.Stall {
		return StageStall, true
	}
	return 0, false
}

// StageInjector wraps a Dataset so that reading chosen samples panics or
// wedges the calling goroutine — the stage worker that holds the sample.
// It implements the same Dataset contract, so it drops into pipeline.New
// unchanged; the faults it injects are survivable only by the pipeline's
// supervision layer, never by the per-sample resilience policy alone.
type StageInjector struct {
	ds  Dataset
	cfg StageFaultConfig
	log *log

	releaseOnce sync.Once
	release     chan struct{}
}

// WrapStage returns a StageInjector over ds configured by cfg.
func WrapStage(ds Dataset, cfg StageFaultConfig) *StageInjector {
	return &StageInjector{
		ds:      ds,
		cfg:     cfg.withDefaults(),
		log:     newLog(),
		release: make(chan struct{}),
	}
}

// Len implements Dataset.
func (in *StageInjector) Len() int { return in.ds.Len() }

// Label implements Dataset; labels pass through unfaulted.
func (in *StageInjector) Label(i int) (*tensor.Tensor, error) {
	return in.ds.Label(i)
}

// Blob implements Dataset, applying sample i's assigned stage fault, if any.
// It panics on the first PanicEvents accesses of a StagePanic sample — that
// is the injected failure, recovered (if at all) by the stage supervisor —
// and wedges the calling goroutine on the first StallEvents accesses of a
// StageStall sample, until the stall bound elapses or Release is called.
func (in *StageInjector) Blob(i int) ([]byte, error) {
	kind, ok := in.cfg.decide(i)
	if !ok {
		return in.ds.Blob(i)
	}
	access := in.log.bumpSample(i)
	switch kind {
	case StagePanic:
		if access <= in.cfg.PanicEvents {
			in.log.record(Injection{Sample: i, Access: access, Kind: StagePanic, Rank: -1, Step: -1})
			panic(fmt.Sprintf("fault: sample %d: injected stage panic (access %d)", i, access))
		}
	case StageStall:
		if access <= in.cfg.StallEvents {
			in.log.record(Injection{Sample: i, Access: access, Kind: StageStall, Rank: -1, Step: -1})
			in.stall()
		}
	}
	return in.ds.Blob(i)
}

// stall blocks until the configured stall bound elapses on the clock or
// Release is called, whichever comes first. With no Alarm clock the wedge
// is indefinite: exactly the silent-hang failure mode the watchdog exists
// to detect.
func (in *StageInjector) stall() {
	if sl, ok := in.cfg.Clock.(trace.Sleeper); ok && in.cfg.StallAdvance > 0 {
		sl.Sleep(in.cfg.StallAdvance)
	}
	var bound <-chan struct{}
	cancel := func() {}
	if a, ok := in.cfg.Clock.(trace.Alarm); ok && in.cfg.StallSeconds > 0 {
		bound, cancel = a.After(in.cfg.Clock.Now() + in.cfg.StallSeconds)
	}
	defer cancel()
	select {
	case <-bound:
	case <-in.release:
	}
}

// Release unwedges every stalled (and future) access: harnesses call it
// after the epoch settles so abandoned workers can drain and exit. Safe to
// call repeatedly.
func (in *StageInjector) Release() {
	in.releaseOnce.Do(func() { close(in.release) })
}

// Log returns the injection events so far, in canonical order.
func (in *StageInjector) Log() []Injection { return in.log.snapshot() }

// CacheFaultConfig sets the per-sample cache bit-rot probability.
type CacheFaultConfig struct {
	// Seed drives every injection decision; same seed, same faults.
	Seed uint64
	// BitRot is the probability a sample rots while resident in the cache.
	BitRot float64
	// BitRotEvents is how many cache hits of a rotting sample are corrupted
	// before the (re-admitted) sample stays clean (default 1).
	BitRotEvents int
}

func (c CacheFaultConfig) withDefaults() CacheFaultConfig {
	if c.BitRotEvents <= 0 {
		c.BitRotEvents = 1
	}
	return c
}

// CacheInjector corrupts cache-resident sample blobs, modeling bit rot on
// the staged NVMe/host-memory tier. It implements the pipeline's
// CacheTamper hook (attach with SampleCache.SetTamper); every tampered hit
// is logged, so quarantine counters reconcile exactly against Log.
type CacheInjector struct {
	cfg CacheFaultConfig
	log *log
}

// NewCacheInjector returns a CacheInjector configured by cfg.
func NewCacheInjector(cfg CacheFaultConfig) *CacheInjector {
	return &CacheInjector{cfg: cfg.withDefaults(), log: newLog()}
}

// decide reports whether sample i is a rotting sample: a pure function of
// (Seed, i).
func (ci *CacheInjector) decide(i int) bool {
	rng := xrand.New(ci.cfg.Seed ^ (uint64(i)+1)*cacheDecisionMix)
	return rng.Float64() < ci.cfg.BitRot
}

// Rots implements the pipeline's cache-tamper question: whether sample
// index is a rotting sample. The cache copies a resident for Tamper only on
// the hits of such samples.
func (ci *CacheInjector) Rots(index int) bool { return ci.decide(index) }

// Tamper implements the pipeline's cache-tamper hook: called with a copy of
// the resident blob on every cache hit Rots accepts (the cache installs a
// changed copy as the resident), it flips a few bytes of it on the first
// BitRotEvents hits of a chosen sample and reports whether it did.
// The flipped sites derive from the per-sample damage stream, so the same
// bytes rot on every run with the same seed.
func (ci *CacheInjector) Tamper(index int, blob []byte) bool {
	if len(blob) == 0 || !ci.decide(index) {
		return false
	}
	access := ci.log.bumpSample(index)
	if access > ci.cfg.BitRotEvents {
		return false
	}
	ci.log.record(Injection{Sample: index, Access: access, Kind: CacheBitRot, Rank: -1, Step: -1})
	rng := xrand.New(ci.cfg.Seed ^ (uint64(index)+1)*0xBF58476D1CE4E5B9)
	flips := 1 + rng.Intn(4)
	for f := 0; f < flips; f++ {
		blob[rng.Intn(len(blob))] ^= byte(1 + rng.Intn(255))
	}
	return true
}

// Log returns the injection events so far, in canonical order.
func (ci *CacheInjector) Log() []Injection { return ci.log.snapshot() }
