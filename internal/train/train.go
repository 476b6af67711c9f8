// Package train drives the convergence experiments of §VIII (Figs 6 and 7):
// real gradient-descent training of the mini DeepCAM and CosmoFlow models on
// base (FP32) versus decoded (FP16 plugin) samples, with the same learning
// schedule and seeds for both sample classes — the paper's methodology of
// changing nothing but the data feeder.
package train

import (
	"fmt"
	"math"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/core"
	"scipp/internal/dist"
	"scipp/internal/fault"
	"scipp/internal/models"
	"scipp/internal/nn"
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
		f := s.ToF32()
		copy(out.F32s[i*stride:(i+1)*stride], f.F32s)
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
	// Steps bounds the total optimizer steps (DeepCAM tracks per step).
	Steps int
	// Epochs bounds full dataset traversals (CosmoFlow tracks per epoch).
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
	// Decoded, Retried, Skipped mirror pipeline.Stats for the epoch.
	Decoded, Retried, Skipped int
	// Metrics is the epoch's observability roll-up: the delta of every
	// counter and histogram in Config.Obs across the epoch (zero when Obs
	// is nil). Stage second totals, codec byte counts and error counters
	// for just this epoch read directly from it.
	Metrics obs.Snapshot
}

// Result couples a run's loss curve with its resilience accounting, so
// robustness experiments can assert on sample-loss budgets next to
// convergence.
type Result struct {
	// Losses is the loss curve (per step for DeepCAM, per epoch for
	// CosmoFlow).
	Losses []float64
	// Epochs is the per-epoch loader accounting, in epoch order.
	Epochs []EpochStats
	// Injections is the fault injector's log (nil unless Config.Faults
	// was set).
	Injections []fault.Injection
	// Metrics is the run's final registry snapshot (zero when Config.Obs
	// is nil).
	Metrics obs.Snapshot
}

// Skipped totals the skipped-sample count across the run's epochs.
func (r *Result) Skipped() int {
	n := 0
	for _, e := range r.Epochs {
		n += e.Skipped
	}
	return n
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

// epoch converts an iterator's accounting into an EpochStats entry and
// advances the roll-up boundary.
func (er *epochRoll) epoch(it *pipeline.Iterator) EpochStats {
	st := it.Stats()
	es := EpochStats{Decoded: st.Decoded, Retried: st.Retried, Skipped: st.Skipped}
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
// per-epoch decoded/retried/skipped counts and the fault injector's log.
func DeepCAMRun(climCfg synthetic.ClimateConfig, cfg Config) (*Result, error) {
	built, err := core.BuildClimateDataset(climCfg, cfg.Samples, cfg.encoding())
	if err != nil {
		return nil, err
	}
	ds, inj := withFaults(built, cfg)
	clock := cfg.obsClock()
	loader, err := pipeline.New(ds, pipeline.Config{
		Format:     cfg.format(core.DeepCAM, clock),
		Batch:      cfg.Batch,
		Shuffle:    true,
		Seed:       cfg.Seed,
		Cache:      cfg.Cache,
		Resilience: cfg.Resilience,
		Clock:      clock,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	model, err := models.MiniDeepCAM(climCfg.Channels, climCfg.Height, climCfg.Width)
	if err != nil {
		return nil, err
	}
	model.InitHe(cfg.Seed)
	opt := nn.NewSGD(cfg.LR, 0.9)
	sched := nn.WarmupSchedule{Base: cfg.LR, WarmupSteps: cfg.Warmup}
	meta, err := cfg.resumeInto("deepcam", model, opt)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	roll := newEpochRoll(cfg.Obs)
	step := meta.Step
	for epoch := meta.Epoch; step < cfg.Steps; epoch++ {
		it := loader.Epoch(epoch)
		epochStart := step
		full := false
		for step < cfg.Steps {
			b, err := it.Next()
			if err != nil {
				it.Close()
				return nil, err
			}
			if b == nil {
				full = true
				break
			}
			x, err := StackData(b.Data)
			if err != nil {
				it.Close()
				return nil, err
			}
			NormalizeChannels(x)
			y, err := StackLabels(b.Labels)
			if err != nil {
				it.Close()
				return nil, err
			}
			model.ZeroGrad()
			logits := model.Forward(x)
			loss, grad := nn.SoftmaxCrossEntropy2D(logits, y)
			model.Backward(grad)
			opt.SetLR(sched.At(step))
			opt.Step(model.Params())
			res.Losses = append(res.Losses, loss)
			step++
		}
		res.Epochs = append(res.Epochs, roll.epoch(it))
		it.Close()
		if step == epochStart {
			// Every sample skipped (or the dataset is empty): without this
			// guard a fully degraded epoch would loop forever.
			return nil, fmt.Errorf("train: epoch %d produced no batches", epoch)
		}
		if full {
			// Snapshots are taken only at true epoch boundaries, never at a
			// mid-epoch step cutoff, so a resumed run replays no batch.
			if err := cfg.saveCheckpoint("deepcam", epoch+1, step, model, opt, nil); err != nil {
				return nil, err
			}
		}
	}
	if inj != nil {
		res.Injections = inj.Log()
	}
	if cfg.Obs != nil {
		res.Metrics = cfg.Obs.Snapshot()
	}
	return res, nil
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
// log.
func CosmoFlowRun(cosmoCfg synthetic.CosmoConfig, cfg Config) (*Result, error) {
	built, err := core.BuildCosmoDataset(cosmoCfg, cfg.Samples, cfg.encoding())
	if err != nil {
		return nil, err
	}
	ds, inj := withFaults(built, cfg)
	clock := cfg.obsClock()
	loader, err := pipeline.New(ds, pipeline.Config{
		Format:     cfg.format(core.CosmoFlow, clock),
		Batch:      cfg.Batch,
		Shuffle:    true,
		Seed:       cfg.Seed,
		Cache:      cfg.Cache,
		Resilience: cfg.Resilience,
		Clock:      clock,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	model, err := models.MiniCosmoFlow(cosmoCfg.Dim)
	if err != nil {
		return nil, err
	}
	model.InitHe(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	sched := nn.WarmupSchedule{Base: cfg.LR, WarmupSteps: cfg.Warmup}
	meta, err := cfg.resumeInto("cosmoflow", model, opt)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	roll := newEpochRoll(cfg.Obs)
	step := meta.Step
	for epoch := meta.Epoch; epoch < cfg.Epochs; epoch++ {
		it := loader.Epoch(epoch)
		var sum float64
		var steps int
		for {
			b, err := it.Next()
			if err != nil {
				it.Close()
				return nil, err
			}
			if b == nil {
				break
			}
			x, err := StackData(b.Data)
			if err != nil {
				it.Close()
				return nil, err
			}
			y, err := StackLabels(b.Labels)
			if err != nil {
				it.Close()
				return nil, err
			}
			model.ZeroGrad()
			pred := model.Forward(x)
			loss, grad := nn.MSELoss(pred, y)
			model.Backward(grad)
			opt.SetLR(sched.At(step))
			opt.Step(model.Params())
			sum += loss
			steps++
			step++
		}
		res.Epochs = append(res.Epochs, roll.epoch(it))
		it.Close()
		if steps == 0 {
			return nil, fmt.Errorf("train: empty epoch %d", epoch)
		}
		res.Losses = append(res.Losses, sum/float64(steps))
		if err := cfg.saveCheckpoint("cosmoflow", epoch+1, step, model, opt, nil); err != nil {
			return nil, err
		}
	}
	if inj != nil {
		res.Injections = inj.Log()
	}
	if cfg.Obs != nil {
		res.Metrics = cfg.Obs.Snapshot()
	}
	return res, nil
}

// DataParallelCosmoFlow trains with `ranks` synchronous data-parallel
// replicas using ring-allreduced gradients (the NCCL/Horovod pattern),
// returning per-epoch mean loss. Every replica holds an identical model;
// each step shards the global batch across ranks.
func DataParallelCosmoFlow(cosmoCfg synthetic.CosmoConfig, cfg Config, ranks int) ([]float64, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("train: invalid rank count %d", ranks)
	}
	if cfg.Batch%ranks != 0 {
		return nil, fmt.Errorf("train: batch %d not divisible by %d ranks", cfg.Batch, ranks)
	}
	built, err := core.BuildCosmoDataset(cosmoCfg, cfg.Samples, cfg.encoding())
	if err != nil {
		return nil, err
	}
	ds, _ := withFaults(built, cfg)
	loader, err := pipeline.New(ds, pipeline.Config{
		Format:     core.FormatFor(core.CosmoFlow, cfg.encoding()),
		Batch:      cfg.Batch,
		Shuffle:    true,
		Seed:       cfg.Seed,
		DropLast:   true,
		Cache:      cfg.Cache,
		Resilience: cfg.Resilience,
	})
	if err != nil {
		return nil, err
	}
	group, err := dist.NewGroup(ranks)
	if err != nil {
		return nil, err
	}
	replicas := make([]*nn.Sequential, ranks)
	opts := make([]*nn.Adam, ranks)
	for r := 0; r < ranks; r++ {
		m, err := models.MiniCosmoFlow(cosmoCfg.Dim)
		if err != nil {
			return nil, err
		}
		m.InitHe(cfg.Seed) // identical init on every replica
		replicas[r] = m
		opts[r] = nn.NewAdam(cfg.LR)
	}
	shard := cfg.Batch / ranks

	var epochLosses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		it := loader.Epoch(epoch)
		var sum float64
		var steps int
		for {
			b, err := it.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			partLoss := make([]float64, ranks)
			rankErr := make([]error, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					m := replicas[rank]
					lo, hi := rank*shard, (rank+1)*shard
					x, _ := StackData(b.Data[lo:hi])
					y, _ := StackLabels(b.Labels[lo:hi])
					m.ZeroGrad()
					pred := m.Forward(x)
					loss, grad := nn.MSELoss(pred, y)
					partLoss[rank] = loss
					m.Backward(grad)
					// Synchronize gradients: mean across replicas.
					for _, p := range m.Params() {
						if err := group.AllReduceMean(rank, p.G); err != nil {
							rankErr[rank] = err
							return
						}
					}
					opts[rank].Step(m.Params())
				}(r)
			}
			wg.Wait()
			for _, err := range rankErr {
				if err != nil {
					return nil, err
				}
			}
			var l float64
			for _, pl := range partLoss {
				l += pl
			}
			sum += l / float64(ranks)
			steps++
		}
		if steps == 0 {
			return nil, fmt.Errorf("train: empty epoch %d", epoch)
		}
		epochLosses = append(epochLosses, sum/float64(steps))
	}
	return epochLosses, nil
}
