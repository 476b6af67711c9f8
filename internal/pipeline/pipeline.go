// Package pipeline implements the data-loading pipeline the paper's plugins
// slot into — the role NVIDIA DALI plays in §VI: indexed datasets of encoded
// samples, per-epoch shuffling, prefetched multi-worker decoding, and batch
// assembly feeding the training loop. Decode placement is selectable per
// §VI's two plugin variants: a CPU thread-pool decoder or the simulated-GPU
// decoder.
//
// # Architecture
//
// The loader is an explicit stage DAG run by consumers and workers only. A
// Source derives each epoch's sample schedule (sequential, shuffled, or
// sharded by rank); the scheduled indices flow through typed stages — Read
// (or Cache, when a storage-hierarchy cache is configured), Decode, and
// optionally Augment — each a bounded worker pool connected by bounded
// queues. Iterator.Next, on the consumer's goroutine, admits samples into
// the head stage, restores schedule order over the stages' completions,
// assembles minibatches and applies the Resilience policy; a worker whose
// attempt fails judges it itself, re-admitting a transient failure at the
// head stage. Admission is capped at Prefetch samples in flight and moves
// only as the consumer takes samples, so backpressure reaches admission
// without a goroutine of its own. Between stages, samples move in runs of
// up to eight, one channel operation per run, with the run length derived
// from Prefetch and the pool widths (see run). Every channel send in the
// stage machinery sits in a select with an abort escape (the guardedsend
// lint rule), so Close never wedges a worker.
package pipeline

import (
	"errors"
	"runtime"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/gpusim"
	"scipp/internal/obs"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// Plugin selects where sample decode runs (§VI: "we implemented two
// variants for decoding ... one for the CPU and another for the GPU").
type Plugin int

// Plugin placements.
const (
	CPUPlugin Plugin = iota
	GPUPlugin
)

// String names the plugin placement.
func (p Plugin) String() string {
	if p == GPUPlugin {
		return "gpu"
	}
	return "cpu"
}

// StageConfig sizes the per-stage worker pools of the DAG. Zero pool widths
// default to a GOMAXPROCS-derived width capped at Prefetch — wide enough to
// keep the in-flight admission cap busy, narrow enough not to thrash the
// scheduler on small hosts. Worker counts never affect delivered order
// (Next restores schedule order), only throughput.
type StageConfig struct {
	// ReadWorkers is the read/cache stage pool width.
	ReadWorkers int
	// DecodeWorkers is the decode stage pool width. This is cross-sample
	// parallelism; cpuDecodeWorkers is the intra-sample chunk parallelism
	// of one CPU-plugin decode.
	DecodeWorkers int
	// AugmentWorkers is the augment stage pool width (ignored without an
	// Augment transform).
	AugmentWorkers int
}

func (s StageConfig) withDefaults(prefetch int) StageConfig {
	pool := func(floor int) int {
		w := runtime.GOMAXPROCS(0)
		if w < floor {
			w = floor
		}
		if w > prefetch {
			w = prefetch
		}
		return w
	}
	if s.ReadWorkers <= 0 {
		s.ReadWorkers = pool(2) // reads may block on storage: keep a spare
	}
	if s.DecodeWorkers <= 0 {
		s.DecodeWorkers = pool(4)
	}
	if s.AugmentWorkers <= 0 {
		s.AugmentWorkers = pool(2)
	}
	return s
}

// Config configures a Loader.
type Config struct {
	// Format opens the dataset's blobs.
	Format codec.Format
	// Plugin places the decode stage.
	Plugin Plugin
	// Device executes GPU-plugin decodes; required iff Plugin == GPUPlugin.
	Device *gpusim.Device
	// Prefetch caps the samples in flight across the stage DAG (default
	// 2*Batch).
	Prefetch int
	// Batch is the per-iterator batch size (default 1).
	Batch int
	// Shuffle reshuffles sample order each epoch.
	Shuffle bool
	// Seed drives shuffling (per-epoch derived).
	Seed uint64
	// DropLast drops a trailing partial batch.
	DropLast bool
	// Source, when non-nil, overrides the schedule policy implied by
	// Shuffle/Seed — e.g. a ShardedSource for rank-partitioned loading. It
	// must cover only valid dataset indices.
	Source Source
	// Stages sizes the per-stage worker pools; zero widths take a
	// GOMAXPROCS-derived default (see StageConfig).
	Stages StageConfig
	// Cache, when enabled, interposes a storage-hierarchy sample cache
	// (HostMem over NVMe, deterministic LRU) in front of Dataset reads. The
	// cache is owned by the Loader and persists across epochs: the first
	// epoch's reads populate it, later epochs hit it — iosim's residency
	// model realized on the actual data path.
	Cache CacheConfig
	// Resilience is the degraded-mode policy: retry budget for transient
	// errors and the per-epoch bad-sample skip quota. The zero value keeps
	// strict semantics (first bad sample fails the epoch).
	Resilience Resilience
	// Supervise tunes the supervision layer: per-stage worker restart
	// budgets for recovered panics and the stall watchdog deadline. The
	// zero value recovers panics under the default budget and leaves the
	// watchdog off. Resilience decides a sample's fate after its worker was
	// revived; Supervise decides whether the worker is revived at all.
	Supervise SupervisorConfig
	// Augment, when non-nil, runs on every decoded sample tensor before
	// batch assembly — the per-sample augmentation stage of the reference
	// pipelines. It executes as its own DAG stage, overlapped with read and
	// decode. Errors fail the sample exactly like decode errors.
	Augment func(*tensor.Tensor) (*tensor.Tensor, error)
	// Trace, when non-nil, receives one event per decoded sample (resource
	// "loader", tag "decode-cpu"/"decode-gpu"), for profiling the real
	// pipeline.
	Trace *trace.Timeline
	// Clock timestamps Trace events and observability spans. Defaults to a
	// wall clock anchored at iterator creation; supply a trace.VirtualClock
	// for reproducible traces.
	Clock trace.Clock
	// Obs, when non-nil, receives the iterator's stage spans and metrics:
	// per-stage duration histograms (pipeline.read / pipeline.decode.cpu /
	// pipeline.decode.gpu / pipeline.augment / pipeline.prefetch_wait, all
	// ".seconds"), sample accounting counters (pipeline.samples.*,
	// pipeline.retries, pipeline.batches, pipeline.errors.*), the
	// pipeline.queue_depth gauge — completed samples waiting for Next,
	// counted in samples and never above Prefetch, sampled as Next takes
	// each position — and, only when a cache is enabled,
	// pipeline.cache.hits/misses/evictions. Nil keeps the hot path
	// uninstrumented at the cost of one nil check per site.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Prefetch <= 0 {
		c.Prefetch = 2 * c.Batch
	}
	c.Stages = c.Stages.withDefaults(c.Prefetch)
	return c
}

// Loader drives the staged decoding of a Dataset.
type Loader struct {
	ds    Dataset
	cfg   Config
	cache *SampleCache // nil unless cfg.Cache is enabled; shared by epochs
	pool  *SlabPool    // recycles sample tensors and batches across epochs
	runs  runLists     // recycles the DAG's runs across hops and epochs
	// spare holds the epoch machinery finished epochs handed back (see
	// epochState); Epoch takes from it before building its own.
	spareMu sync.Mutex
	spare   []*epochState
}

// New validates the configuration and returns a Loader.
func New(ds Dataset, cfg Config) (*Loader, error) {
	cfg = cfg.withDefaults()
	if ds == nil {
		return nil, errors.New("pipeline: nil dataset")
	}
	if cfg.Format == nil {
		return nil, errors.New("pipeline: nil format")
	}
	if cfg.Plugin == GPUPlugin && cfg.Device == nil {
		return nil, errors.New("pipeline: GPU plugin requires a device")
	}
	if v, ok := cfg.Source.(interface{ Validate() error }); ok && v != nil {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	l := &Loader{ds: ds, cfg: cfg, pool: NewSlabPool()}
	if cfg.Cache.enabled() {
		l.cache = NewSampleCache(cfg.Cache)
	}
	return l, nil
}

// runLen is the loader's run length: its derivation reads the widest stage
// pool, counting the augment pool only when an augment stage will run.
func (l *Loader) runLen() int {
	st := l.cfg.Stages
	widest := max(st.ReadWorkers, st.DecodeWorkers)
	if l.cfg.Augment != nil {
		widest = max(widest, st.AugmentWorkers)
	}
	return runLen(l.cfg.Prefetch, l.cfg.Batch, widest)
}

// Cache returns the loader's sample cache, or nil when caching is disabled.
func (l *Loader) Cache() *SampleCache { return l.cache }

// Pool returns the loader's slab pool — the recycler behind the decoded
// sample tensors and batches its iterators hand out (see Batch.Release).
func (l *Loader) Pool() *SlabPool { return l.pool }

// Schedule returns the sample order for an epoch, as derived by the
// configured Source (default: sequential, or seeded per-epoch shuffle when
// Shuffle is set).
func (l *Loader) Schedule(epoch int) []int { return l.schedule(nil, epoch) }

// schedule is Schedule writing the default sources' order into buf's
// memory when it has room; a configured Source returns its own slice.
func (l *Loader) schedule(buf []int, epoch int) []int {
	if l.cfg.Source != nil {
		return l.cfg.Source.Order(epoch)
	}
	order := identity(buf, l.ds.Len())
	if l.cfg.Shuffle {
		shuffled(order, l.cfg.Seed, epoch)
	}
	return order
}

// Epoch returns an iterator over the epoch's batches. It starts the stage
// workers and admits the first Prefetch/runLen runs, so prefetch starts
// here; call Close to release the workers early.
func (l *Loader) Epoch(epoch int) *Iterator {
	es := l.takeSpare()
	if es == nil {
		es = l.newEpochState()
	}
	clock := l.cfg.Clock
	if clock == nil {
		es.wall.Reanchor()
		clock = &es.wall
	}
	rl := l.runLen()
	it := &Iterator{
		loader: l,
		es:     es,
		order:  l.schedule(es.order, epoch),
		clock:  clock,
		ob:     newIterObs(l.cfg.Obs, clock, l.cache != nil, es.dec.Name(), l.cfg.Augment != nil),
		stop:   make(chan struct{}),
		runLen: rl,
		window: l.cfg.Prefetch / rl * rl,
	}
	es.reset(it)
	es.start()
	for lo := 0; lo < min(it.window, len(it.order)); lo += rl {
		it.admit(lo)
	}
	if len(it.order) == 0 {
		it.Close() // nothing to take: the workers exit at once
		it.release()
	}
	return it
}
