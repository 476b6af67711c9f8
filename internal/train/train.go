// Package train drives the convergence experiments of §VIII (Figs 6 and 7):
// real gradient-descent training of the mini DeepCAM and CosmoFlow models on
// base (FP32) versus decoded (FP16 plugin) samples, with the same learning
// schedule and seeds for both sample classes — the paper's methodology of
// changing nothing but the data feeder. Every run, on one replica or many,
// goes through one engine (elasticRun), so the single-replica figures and
// the data-parallel and chaos runs share one step function.
package train

import (
	"fmt"
	"math"

	"scipp/internal/codec"
	"scipp/internal/core"
	"scipp/internal/dist"
	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// StackData concatenates per-sample tensors into one batched FP32 tensor
// [N, sampleShape...]. FP16 samples (the decoded plugin output) are widened
// to FP32 at ingest — exactly what autocast mixed precision does with
// half-precision inputs.
func StackData(samples []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("train: empty batch")
	}
	shape := samples[0].Shape
	out := tensor.New(tensor.F32, append(tensor.Shape{len(samples)}, shape...)...)
	stride := shape.Elems()
	for i, s := range samples {
		if !s.Shape.Equal(shape) {
			return nil, fmt.Errorf("train: sample %d shape %v != %v", i, s.Shape, shape)
		}
		s.WidenF32(out.F32s[i*stride:(i+1)*stride], 0)
	}
	return out, nil
}

// StackLabels concatenates per-sample labels, preserving dtype.
func StackLabels(labels []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("train: empty label batch")
	}
	shape := labels[0].Shape
	out := tensor.New(labels[0].DT, append(tensor.Shape{len(labels)}, shape...)...)
	stride := shape.Elems()
	for i, l := range labels {
		if !l.Shape.Equal(shape) || l.DT != labels[0].DT {
			return nil, fmt.Errorf("train: label %d shape/dtype mismatch", i)
		}
		switch l.DT {
		case tensor.F32:
			copy(out.F32s[i*stride:(i+1)*stride], l.F32s)
		case tensor.I16:
			copy(out.I16s[i*stride:(i+1)*stride], l.I16s)
		default:
			return nil, fmt.Errorf("train: unsupported label dtype %v", l.DT)
		}
	}
	return out, nil
}

// NormalizeChannels standardizes a batched [N, C, ...] FP32 tensor per
// channel in place: (x - mean_c) / (std_c + eps). The DeepCAM reference
// pipeline normalizes the 16 physical fields, whose raw magnitudes span
// orders of magnitude (pressure ~1e5 vs humidity ~1e-2). It panics unless x
// is batched FP32 (programmer invariant: batches come from the repo's own
// loaders, whose decoders validate shapes at Open).
func NormalizeChannels(x *tensor.Tensor) {
	if x.DT != tensor.F32 || len(x.Shape) < 3 {
		panic("train: NormalizeChannels needs batched FP32 [N, C, ...]")
	}
	n, c := x.Shape[0], x.Shape[1]
	stride := x.Elems() / (n * c)
	for ci := 0; ci < c; ci++ {
		var sum, sumSq float64
		cnt := 0
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * stride
			for i := 0; i < stride; i++ {
				v := float64(x.F32s[base+i])
				sum += v
				sumSq += v * v
				cnt++
			}
		}
		mean := sum / float64(cnt)
		variance := sumSq/float64(cnt) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / (math.Sqrt(variance) + 1e-6))
		m := float32(mean)
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * stride
			for i := 0; i < stride; i++ {
				x.F32s[base+i] = (x.F32s[base+i] - m) * inv
			}
		}
	}
}

// Config configures one convergence run.
type Config struct {
	// Encoded selects the decoded plugin samples (FP16) instead of the
	// baseline FP32 samples.
	Encoded bool
	// Samples is the training-set size.
	Samples int
	// Batch is the minibatch size (the paper uses 2/step for DeepCAM).
	Batch int
	// Steps bounds the total optimizer steps. A Steps-bounded run reports
	// one loss per step (DeepCAM tracks per step).
	Steps int
	// Epochs bounds full dataset traversals; an Epochs-bounded run reports
	// one mean loss per epoch (CosmoFlow tracks per epoch). A run stops at
	// whichever set bound it reaches first.
	Epochs int
	// Seed drives model init and shuffling; vary per repetition.
	Seed uint64
	// LR is the base learning rate.
	LR float64
	// Warmup is the warmup step count of the schedule.
	Warmup int
	// Resilience is the loader's degraded-mode policy (transient-error
	// retries, bad-sample skip quota). The zero value keeps strict
	// semantics: the first undecodable sample fails the run.
	Resilience pipeline.Resilience
	// Cache, when enabled, gives the loader a storage-hierarchy sample
	// cache (pipeline.CacheConfig; size it by hand or with
	// pipeline.CacheFromNode). The first epoch populates it, later epochs
	// read from it. Caching never changes delivered samples or losses —
	// only where the bytes come from.
	Cache pipeline.CacheConfig
	// Faults, when non-nil, wraps the training dataset in a seeded fault
	// injector — the harness of the robustness experiments (the paper suite's
	// faults rows).
	Faults *fault.Config
	// Obs, when non-nil, instruments the run end to end: the loader emits
	// stage spans and sample counters, the decode format is wrapped by
	// obs.InstrumentFormat, and the Result carries per-epoch metric deltas.
	Obs *obs.Registry
	// Clock drives observability spans (and loader trace events). Defaults
	// to a wall clock; supply a trace.VirtualClock for exact, reproducible
	// durations in tests.
	Clock trace.Clock
	// CheckpointEvery saves a resumable snapshot into Checkpoints after
	// every N fully completed epochs. Zero disables checkpointing.
	CheckpointEvery int
	// Checkpoints receives the epoch-boundary snapshots; required when
	// CheckpointEvery is set.
	Checkpoints *CheckpointLog
	// ResumeFrom, when non-nil, restores the run from a snapshot — model
	// weights, optimizer state, RNG streams and sampler position — and
	// continues from its epoch boundary bit-identically to a run that was
	// never interrupted.
	ResumeFrom *Checkpoint
}

// done reports whether a run positioned at (epoch, step) has reached a set
// bound; a run with neither bound set does nothing.
func (c Config) done(epoch, step int) bool {
	return (c.Steps > 0 && step >= c.Steps) || (c.Epochs > 0 && epoch >= c.Epochs) ||
		(c.Steps <= 0 && c.Epochs <= 0)
}

// obsClock resolves the clock shared by the loader and the instrumented
// format: the configured clock, or one wall clock per run when
// instrumentation is on.
func (c Config) obsClock() trace.Clock {
	if c.Clock != nil || c.Obs == nil {
		return c.Clock
	}
	return trace.NewWallClock()
}

// format returns the decode format for app, instrumented when Obs is set.
func (c Config) format(app core.App, clock trace.Clock) codec.Format {
	f := core.FormatFor(app, c.encoding())
	if c.Obs != nil {
		f = obs.InstrumentFormat(f, c.Obs, clock)
	}
	return f
}

// EpochStats is one epoch's loader error accounting within a run.
type EpochStats struct {
	// Decoded, Retried, Skipped mirror pipeline.Stats for the epoch (zero
	// when the batch source keeps no pipeline.Stats, e.g. a dataserve
	// tenant).
	Decoded, Retried, Skipped int
	// Metrics is the epoch's observability roll-up: the delta of every
	// counter and histogram in Config.Obs across the epoch (zero when Obs
	// is nil). Stage second totals, codec byte counts and error counters
	// for just this epoch read directly from it.
	Metrics obs.Snapshot
}

// Result is a training run's outcome: the loss curve, the loader's
// resilience accounting and, for data-parallel runs, the full rank-failure
// record, positioned so it reconciles exactly against the fault injectors'
// logs.
type Result struct {
	// Losses is the loss curve: one value per optimizer step when
	// Config.Steps bounds the run, otherwise one per-epoch mean.
	Losses []float64
	// StepLosses is the per-step global loss (each step's shard-weighted
	// mean over the ranks that survived it).
	StepLosses []float64
	// Epochs is the per-epoch loader accounting, in epoch order.
	Epochs []EpochStats
	// Injections is the data fault injector's log (nil unless
	// Config.Faults was set).
	Injections []fault.Injection
	// Metrics is the run's final registry snapshot (zero when Config.Obs
	// is nil).
	Metrics obs.Snapshot
	// Evictions are the group's eviction records, in order.
	Evictions []dist.Eviction
	// EvictionSteps gives, parallel to Evictions, the global optimizer step
	// during which each eviction was absorbed.
	EvictionSteps []int
	// RankLog is the rank fault injector's canonical log (nil without
	// ElasticConfig.RankFaults).
	RankLog []fault.Injection
	// Alive lists the ranks still live at the end of the run.
	Alive []int
	// Generations is the final ring generation (= evictions survived,
	// counting from any ranks already down at start).
	Generations int
	// Stragglers lists the ranks flagged slow when the run ended.
	Stragglers []int
}

// withFaults wraps ds per cfg.Faults, returning the loader-facing dataset
// and the injector (nil when fault injection is off).
func withFaults(ds pipeline.Dataset, cfg Config) (pipeline.Dataset, *fault.Injector) {
	if cfg.Faults == nil {
		return ds, nil
	}
	inj := fault.Wrap(ds, *cfg.Faults)
	return inj, inj
}

// epochRoll accumulates per-epoch EpochStats entries, attaching the metric
// delta observed since the previous epoch boundary when a registry is wired.
type epochRoll struct {
	reg  *obs.Registry
	prev obs.Snapshot
}

func newEpochRoll(reg *obs.Registry) *epochRoll {
	return &epochRoll{reg: reg, prev: reg.Snapshot()}
}

// epoch converts an epoch iterator's accounting into an EpochStats entry
// and advances the roll-up boundary.
func (er *epochRoll) epoch(it BatchIter) EpochStats {
	var es EpochStats
	if s, ok := it.(interface{ Stats() pipeline.Stats }); ok {
		st := s.Stats()
		es = EpochStats{Decoded: st.Decoded, Retried: st.Retried, Skipped: st.Skipped}
	}
	if er.reg != nil {
		cur := er.reg.Snapshot()
		es.Metrics = cur.Delta(er.prev)
		er.prev = cur
	}
	return es
}

func (c Config) encoding() core.Encoding {
	if c.Encoded {
		return core.Plugin
	}
	return core.Baseline
}

// DeepCAM runs the Fig 6 experiment: per-step training loss of the
// segmentation model under cfg. Returns one loss value per optimizer step.
func DeepCAM(climCfg synthetic.ClimateConfig, cfg Config) ([]float64, error) {
	res, err := DeepCAMRun(climCfg, cfg)
	if err != nil {
		return nil, err
	}
	return res.Losses, nil
}

// DeepCAMRun is DeepCAM with full resilience accounting: the Result carries
// per-epoch decoded/retried/skipped counts and the fault injector's log. It
// is a one-replica ElasticDeepCAM.
func DeepCAMRun(climCfg synthetic.ClimateConfig, cfg Config) (*Result, error) {
	return ElasticDeepCAM(climCfg, cfg, ElasticConfig{Ranks: 1})
}

// CosmoFlow runs one Fig 7 repetition: per-epoch mean training loss of the
// regression model under cfg. Returns one loss value per epoch.
func CosmoFlow(cosmoCfg synthetic.CosmoConfig, cfg Config) ([]float64, error) {
	res, err := CosmoFlowRun(cosmoCfg, cfg)
	if err != nil {
		return nil, err
	}
	return res.Losses, nil
}

// CosmoFlowRun is CosmoFlow with full resilience accounting: the Result
// carries per-epoch decoded/retried/skipped counts and the fault injector's
// log. It is a one-replica ElasticCosmoFlow.
func CosmoFlowRun(cosmoCfg synthetic.CosmoConfig, cfg Config) (*Result, error) {
	return ElasticCosmoFlow(cosmoCfg, cfg, ElasticConfig{Ranks: 1})
}
