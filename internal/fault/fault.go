// Package fault is a deterministic fault-injection layer for the data
// pipeline. The paper's decoders run against samples staged through shared
// parallel filesystems and node-local NVMe (§VI), where bit rot, truncated
// stage-ins, and transient I/O errors are routine at scale; this package
// reproduces those failure modes on demand so the loader's resilience policy
// (pipeline.Resilience) can be exercised and asserted on.
//
// Injectors wrap a pipeline Dataset (Wrap) or a codec.Format (WrapFormat).
// Every injection decision is a pure function of (Config.Seed, sample) — not
// of access order or goroutine scheduling — so a given seed produces the
// identical fault pattern on every run, and the injection log is queryable
// after the fact for exact accounting against Iterator.Stats.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/tensor"
	"scipp/internal/trace"
	"scipp/internal/xrand"
)

// Transient classifies an error as retryable: the failure is expected to
// clear on a re-read (a flaky NFS mount, a stage-in that has not landed yet).
// The loader's resilience policy retries errors for which
// errors.Is(err, Transient) holds and treats everything else as permanent.
var Transient = errors.New("transient fault")

// MarkTransient wraps err so that errors.Is(err, Transient) reports true
// while errors.Is/As against err's own chain keep working. Datasets outside
// this package use it to tag their own retryable I/O errors.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }

// Unwrap exposes both the wrapped error and the Transient marker.
func (e *transientErr) Unwrap() []error { return []error{e.err, Transient} }

// Kind enumerates the injected failure modes.
type Kind int

// The failure modes, in the order Config probabilities are drawn.
const (
	// Corrupt flips a few bytes of the blob on every access (bit rot).
	Corrupt Kind = iota
	// Truncate cuts the blob short on every access (interrupted stage-in).
	Truncate
	// TransientIO fails the first TransientFailures accesses with a
	// Transient-marked error, then succeeds (flaky mount, cold cache).
	TransientIO
	// Lost fails every access with a permanent error (evicted or missing
	// object).
	Lost
	// Latency delivers the blob intact after a stall of LatencySeconds on
	// the configured clock (straggling storage server).
	Latency

	numDataKinds

	// CrashRank fail-stops a training rank at a chosen step (node OOM,
	// hardware loss): the rank announces its departure and never returns.
	CrashRank
	// HangRank silently wedges a training rank at a chosen step (network
	// partition, stuck device): no announcement, only the communicator's
	// collective deadline can detect it.
	HangRank
	// SlowRank stalls a training rank for SlowSeconds before a step
	// (thermal throttling, noisy neighbor), feeding straggler detection.
	SlowRank

	// StagePanic crashes a pipeline stage worker mid-sample (a decoder bug,
	// an OOM-killed helper): the worker panics while holding the sample, so
	// only the stage supervisor's recovery path can save the epoch.
	StagePanic
	// StageStall wedges a pipeline stage worker indefinitely (a hung NFS
	// read, a dead stage-in daemon): the sample never completes, so only
	// the stall watchdog can detect and route around it.
	StageStall
	// CacheBitRot silently flips bytes of a sample resident in the staged
	// sample cache (NVMe bit rot, DMA corruption): the storage copy stays
	// intact, so cache-integrity verification must catch it on the hit.
	CacheBitRot

	// TierIO fails one NVMe-tier access of a chosen sample (a flaky cell,
	// a timed-out device command): the cache drops the resident and
	// charges the tier's health.
	TierIO
	// TierSlow delivers an NVMe-tier access only after a stall on the
	// configured clock (degraded-bandwidth mode: a device throttling or
	// resilvering).
	TierSlow
	// TierDead fails every NVMe-tier access after the device dies (pulled
	// drive, controller loss): only the cache's failover to HostMem-only
	// mode keeps samples flowing, and only its recovery probes notice the
	// tier coming back.
	TierDead

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case TransientIO:
		return "transient"
	case Lost:
		return "lost"
	case Latency:
		return "latency"
	case CrashRank:
		return "crash-rank"
	case HangRank:
		return "hang-rank"
	case SlowRank:
		return "slow-rank"
	case StagePanic:
		return "stage-panic"
	case StageStall:
		return "stage-stall"
	case CacheBitRot:
		return "cache-bitrot"
	case TierIO:
		return "tier-io"
	case TierSlow:
		return "tier-slow"
	case TierDead:
		return "tier-dead"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config sets the per-sample fault probabilities. Each sample draws at most
// one fault kind, deterministically from Seed, so the probabilities must sum
// to at most 1.
type Config struct {
	// Seed drives every injection decision; same seed, same faults.
	Seed uint64
	// Corrupt is the probability a sample's blob has bytes flipped.
	Corrupt float64
	// Truncate is the probability a sample's blob is cut short.
	Truncate float64
	// Transient is the probability a sample fails its first
	// TransientFailures accesses with a retryable error.
	Transient float64
	// Lost is the probability a sample is permanently unreadable.
	Lost float64
	// Latency is the probability a sample's delivery stalls.
	Latency float64
	// TransientFailures is how many accesses a TransientIO sample fails
	// before recovering (default 2).
	TransientFailures int
	// LatencySeconds is the stall injected on Latency samples (default
	// 0.05). The stall passes through Clock when it implements
	// trace.Sleeper, so simulated runs stall in virtual time.
	LatencySeconds float64
	// Clock, when non-nil and a trace.Sleeper, absorbs Latency stalls.
	Clock trace.Clock
}

func (c Config) withDefaults() Config {
	if c.TransientFailures <= 0 {
		c.TransientFailures = 2
	}
	if c.LatencySeconds <= 0 {
		c.LatencySeconds = 0.05
	}
	return c
}

// decide returns the fault kind assigned to sample i, if any. It is a pure
// function of (Seed, i): access order and concurrency cannot change it.
func (c Config) decide(i int) (Kind, bool) {
	rng := xrand.New(c.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	u := rng.Float64()
	for k, p := range [numDataKinds]float64{c.Corrupt, c.Truncate, c.Transient, c.Lost, c.Latency} {
		if u < p {
			return Kind(k), true
		}
		u -= p
	}
	return 0, false
}

// damageRNG derives the per-sample stream that picks corruption/truncation
// sites, independent of the decision stream so the same bytes are damaged on
// every access.
func (c Config) damageRNG(i int) *xrand.RNG {
	return xrand.New(c.Seed ^ (uint64(i)+1)*0xBF58476D1CE4E5B9)
}

// Injection is one logged fault event: sample's access number `Access`
// (1-based) hit fault `Kind`. Format-level injections (WrapFormat) carry the
// blob hash in Key and Sample == -1. Rank-level injections (RankInjector)
// carry the training rank and step and use Sample == -1, Rank/Step >= 0;
// data-path injections have Rank == Step == -1.
type Injection struct {
	// Sample is the dataset index, or -1 for format- and rank-level
	// injections.
	Sample int
	// Key is the blob hash for format-level injections, 0 otherwise.
	Key uint64
	// Access is the 1-based per-sample access count when the fault fired;
	// 0 for rank-level injections.
	Access int
	// Kind is the injected failure mode.
	Kind Kind
	// Rank is the training rank for rank-level injections, -1 otherwise.
	Rank int
	// Step is the training step for rank-level injections, -1 otherwise.
	Step int
}

// log is the shared injection record of both injector flavors.
type log struct {
	mu     sync.Mutex
	events []Injection
	access map[int]int    // per-sample access counts (dataset injector)
	keyAcc map[uint64]int // per-blob access counts (format injector)
}

func newLog() *log {
	return &log{
		access: make(map[int]int),
		keyAcc: make(map[uint64]int),
	}
}

func (l *log) bumpSample(i int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.access[i]++
	return l.access[i]
}

func (l *log) bumpKey(k uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keyAcc[k]++
	return l.keyAcc[k]
}

func (l *log) record(inj Injection) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, inj)
}

// snapshot returns the events sorted by (Sample, Key, Rank, Step, Access,
// Kind): access order under a concurrent loader is scheduler-dependent, so
// the log is exposed in a canonical order to keep same-seed runs comparable.
func (l *log) snapshot() []Injection {
	l.mu.Lock()
	out := append([]Injection(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Sample != y.Sample {
			return x.Sample < y.Sample
		}
		if x.Key != y.Key {
			return x.Key < y.Key
		}
		if x.Rank != y.Rank {
			return x.Rank < y.Rank
		}
		if x.Step != y.Step {
			return x.Step < y.Step
		}
		if x.Access != y.Access {
			return x.Access < y.Access
		}
		return x.Kind < y.Kind
	})
	return out
}

// Dataset is the indexed-sample contract the injector wraps. It is
// structurally identical to pipeline.Dataset (declared here to keep this
// package importable from the pipeline without a cycle).
type Dataset interface {
	Len() int
	Blob(i int) ([]byte, error)
	Label(i int) (*tensor.Tensor, error)
}

// Injector wraps a Dataset, injecting faults on Blob accesses per its
// Config. It implements the same Dataset contract, so it drops into
// pipeline.New unchanged.
type Injector struct {
	ds  Dataset
	cfg Config
	log *log
}

// Wrap returns an Injector over ds configured by cfg.
func Wrap(ds Dataset, cfg Config) *Injector {
	return &Injector{ds: ds, cfg: cfg.withDefaults(), log: newLog()}
}

// Len implements Dataset.
func (in *Injector) Len() int { return in.ds.Len() }

// Label implements Dataset; labels pass through unfaulted (the failure modes
// under study are blob-side: the label path is exercised directly in tests).
func (in *Injector) Label(i int) (*tensor.Tensor, error) { return in.ds.Label(i) }

// Blob implements Dataset, applying sample i's assigned fault, if any.
func (in *Injector) Blob(i int) ([]byte, error) {
	kind, ok := in.cfg.decide(i)
	if !ok {
		return in.ds.Blob(i)
	}
	at := Injection{Sample: i, Access: in.log.bumpSample(i), Rank: -1, Step: -1}
	return in.cfg.inject(in.log, at, kind, fmt.Sprintf("sample %d", i), i, func() ([]byte, error) { return in.ds.Blob(i) })
}

// Log returns the injection events so far, in canonical order.
func (in *Injector) Log() []Injection { return in.log.snapshot() }

// damage applies Corrupt or Truncate to a copy of blob, deterministically
// under rng.
func damage(blob []byte, kind Kind, rng *xrand.RNG) []byte {
	if len(blob) == 0 {
		return blob
	}
	if kind == Truncate {
		return blob[:rng.Intn(len(blob))]
	}
	out := append([]byte(nil), blob...)
	flips := 1 + rng.Intn(4)
	for f := 0; f < flips; f++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// inject applies one assigned fault to access at.Access of an item named
// who: a TransientIO fails the first TransientFailures accesses, Lost fails
// every access, Latency sleeps on the clock, and Corrupt or Truncate damage
// a copy of the clean blob (with damageRNG(i)). fetch reads the clean blob;
// every applied fault is recorded in l.
func (c Config) inject(l *log, at Injection, kind Kind, who string, i int, fetch func() ([]byte, error)) ([]byte, error) {
	at.Kind = kind
	switch kind {
	case TransientIO:
		if at.Access > c.TransientFailures {
			return fetch()
		}
		l.record(at)
		return nil, MarkTransient(fmt.Errorf("fault: %s: injected transient I/O error (access %d)", who, at.Access))
	case Lost:
		l.record(at)
		return nil, fmt.Errorf("fault: %s: injected permanent loss", who)
	case Latency:
		l.record(at)
		if s, isSleeper := c.Clock.(trace.Sleeper); isSleeper {
			s.Sleep(c.LatencySeconds)
		}
		return fetch()
	}
	blob, err := fetch()
	if err != nil {
		return nil, err
	}
	l.record(at)
	return damage(blob, kind, c.damageRNG(i)), nil
}

// hashBlob is FNV-1a over the blob: the format injector's stand-in for a
// sample identity, since Format.Open sees only bytes.
func hashBlob(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// FormatInjector wraps a codec.Format, faulting blobs at Open time — the
// layer where decode-side corruption (as opposed to storage-side) lands.
type FormatInjector struct {
	f   codec.Format
	cfg Config
	log *log
}

// WrapFormat returns a FormatInjector over f configured by cfg. Injection
// decisions key off a hash of the blob (Open has no sample index), so they
// are deterministic per blob content.
//
//lint:ignore deadcode no loader or suite injects at Open time; queued for deletion with its tests (ROADMAP item 9)
func WrapFormat(f codec.Format, cfg Config) *FormatInjector {
	return &FormatInjector{f: f, cfg: cfg.withDefaults(), log: newLog()}
}

// Name implements codec.Format.
func (fi *FormatInjector) Name() string { return fi.f.Name() + "+fault" }

// Open implements codec.Format, applying the blob's assigned fault first.
func (fi *FormatInjector) Open(blob []byte) (codec.ChunkDecoder, error) {
	key := hashBlob(blob)
	cfg := fi.cfg
	cfg.Seed ^= key
	kind, ok := cfg.decide(0)
	if !ok {
		return fi.f.Open(blob)
	}
	at := Injection{Sample: -1, Key: key, Access: fi.log.bumpKey(key), Rank: -1, Step: -1}
	blob, err := cfg.inject(fi.log, at, kind, fmt.Sprintf("blob %016x", key), 0, func() ([]byte, error) { return blob, nil })
	if err != nil {
		return nil, err
	}
	return fi.f.Open(blob)
}

// Log returns the injection events so far, in canonical order.
//
//lint:ignore deadcode the FormatInjector tests read the injection log with it; queued for deletion with its tests (ROADMAP item 9)
func (fi *FormatInjector) Log() []Injection { return fi.log.snapshot() }
