package train

import (
	"errors"
	"fmt"
	"sync"

	"scipp/internal/core"
	"scipp/internal/dist"
	"scipp/internal/fault"
	"scipp/internal/models"
	"scipp/internal/nn"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// ElasticConfig configures the fault-tolerant data-parallel engine: a group
// of synchronous replicas that survives rank failures mid-run. The fault
// model matches internal/dist: fail-stop at collective boundaries — a rank
// crashes (announces Leave) or hangs (never arrives, evicted by deadline)
// instead of joining a step's gradient allreduce, survivors rebuild the ring
// and re-run the interrupted collective.
type ElasticConfig struct {
	// Ranks is the initial replica count; required, > 0.
	Ranks int
	// Timeout is the collective deadline in clock seconds (see
	// dist.Config.Timeout). Zero disables failure detection by deadline;
	// crashes are still detected immediately via Leave.
	Timeout float64
	// SlowFactor flags straggler ranks (see dist.Config.SlowFactor).
	SlowFactor float64
	// RankFaults, when non-nil, injects seeded rank-level faults
	// (crash/hang/slow) through fault.NewRankInjector. Hang faults need a
	// real deadline: set Timeout and use a wall clock, or the run blocks.
	RankFaults *fault.RankConfig
	// Clock drives collective deadlines, straggler EWMAs and injected
	// slow-rank stalls. Nil keeps the run clockless (crash-only faults).
	Clock trace.Clock
	// Source, when non-nil, overrides the run's data path: instead of
	// building a private pipeline.Loader the run draws its batches from
	// this source — typically a dataserve tenant (see NewTenantSource), so
	// concurrent elastic runs share one decoded-sample cache. The source
	// owns schedule determinism: configure it with the same batch size,
	// shuffle seed and drop-last policy the private loader would have used
	// and the run is bit-identical.
	Source BatchSource
}

// elasticSpec is the per-application half of the engine: model and
// optimizer construction, input normalization and the loss. Everything
// else — the loader, sharding, fault injection, the weighted gradient
// allreduce, retries, checkpointing — is shared by every training run.
type elasticSpec struct {
	app       string
	newModel  func() (*nn.Sequential, error)
	newOpt    func(cfg Config) nn.Optimizer
	normalize bool
	loss      func(m *nn.Sequential, x, y *tensor.Tensor) (float64, *tensor.Tensor)
}

// deepcamSpec is the segmentation model's half of the engine.
func deepcamSpec(climCfg synthetic.ClimateConfig) elasticSpec {
	return elasticSpec{
		app: "deepcam",
		newModel: func() (*nn.Sequential, error) {
			return models.MiniDeepCAM(climCfg.Channels, climCfg.Height, climCfg.Width)
		},
		newOpt:    func(cfg Config) nn.Optimizer { return nn.NewSGD(cfg.LR, 0.9) },
		normalize: true,
		loss: func(m *nn.Sequential, x, y *tensor.Tensor) (float64, *tensor.Tensor) {
			return nn.SoftmaxCrossEntropy2D(m.Forward(x), y)
		},
	}
}

// batch stacks samples [lo, hi) of b into the model input and labels.
func (s elasticSpec) batch(b *pipeline.Batch, lo, hi int) (x, y *tensor.Tensor, err error) {
	if x, err = StackData(b.Data[lo:hi]); err != nil {
		return nil, nil, err
	}
	if s.normalize {
		NormalizeChannels(x)
	}
	y, err = StackLabels(b.Labels[lo:hi])
	return x, y, err
}

// ElasticDeepCAM trains the segmentation model across ecfg.Ranks elastic
// replicas until cfg.Steps steps or cfg.Epochs epochs, whichever set bound
// comes first.
func ElasticDeepCAM(climCfg synthetic.ClimateConfig, cfg Config, ecfg ElasticConfig) (*Result, error) {
	built, err := core.BuildClimateDataset(climCfg, cfg.Samples, cfg.encoding())
	if err != nil {
		return nil, err
	}
	return elasticRun(built, core.DeepCAM, cfg, ecfg, deepcamSpec(climCfg))
}

// ElasticCosmoFlow trains the regression model across ecfg.Ranks elastic
// replicas until cfg.Steps steps or cfg.Epochs epochs, whichever set bound
// comes first. At any rank count it follows the one-replica curve: the
// shard-weighted allreduce gives every replica the global batch gradient.
func ElasticCosmoFlow(cosmoCfg synthetic.CosmoConfig, cfg Config, ecfg ElasticConfig) (*Result, error) {
	built, err := core.BuildCosmoDataset(cosmoCfg, cfg.Samples, cfg.encoding())
	if err != nil {
		return nil, err
	}
	spec := elasticSpec{
		app:      "cosmoflow",
		newModel: func() (*nn.Sequential, error) { return models.MiniCosmoFlow(cosmoCfg.Dim) },
		newOpt:   func(cfg Config) nn.Optimizer { return nn.NewAdam(cfg.LR) },
		loss: func(m *nn.Sequential, x, y *tensor.Tensor) (float64, *tensor.Tensor) {
			return nn.MSELoss(m.Forward(x), y)
		},
	}
	return elasticRun(built, core.CosmoFlow, cfg, ecfg, spec)
}

// engine is one run's replica set: a model and optimizer per rank, the
// communicator joining them and the optional rank fault injector.
type engine struct {
	spec     elasticSpec
	group    *dist.Group
	replicas []*nn.Sequential
	opts     []nn.Optimizer
	inj      *fault.RankInjector
}

// elasticRun is the training loop every run goes through.
func elasticRun(built pipeline.Dataset, app core.App, cfg Config, ecfg ElasticConfig, spec elasticSpec) (*Result, error) {
	if ecfg.Ranks <= 0 {
		return nil, fmt.Errorf("train: invalid rank count %d", ecfg.Ranks)
	}
	source := ecfg.Source
	var dataInj *fault.Injector
	if source == nil {
		var ds pipeline.Dataset
		ds, dataInj = withFaults(built, cfg)
		clock := cfg.obsClock()
		loader, err := pipeline.New(ds, pipeline.Config{
			Format:  cfg.format(app, clock),
			Batch:   cfg.Batch,
			Shuffle: true,
			Seed:    cfg.Seed,
			// Replicas shard every batch, so a short tail batch that might
			// not cover them is dropped; a lone replica trains on it.
			DropLast:   ecfg.Ranks > 1,
			Cache:      cfg.Cache,
			Resilience: cfg.Resilience,
			Clock:      clock,
			Obs:        cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		source = loaderSource{loader}
	}

	e := &engine{spec: spec, replicas: make([]*nn.Sequential, ecfg.Ranks), opts: make([]nn.Optimizer, ecfg.Ranks)}
	for r := range e.replicas {
		m, err := spec.newModel()
		if err != nil {
			return nil, err
		}
		m.InitHe(cfg.Seed) // identical init on every replica
		e.replicas[r] = m
		e.opts[r] = spec.newOpt(cfg)
	}

	// Resume before building the group: the checkpoint names the ranks that
	// were already lost, and they must start down or the collectives would
	// wait on ghosts. Every replica restores from the same snapshot (weights
	// and optimizer state are identical across ranks by construction).
	var meta CheckpointMeta
	var err error
	for r := range e.replicas {
		meta, err = cfg.resumeInto(spec.app, e.replicas[r], e.opts[r])
		if err != nil {
			return nil, err
		}
	}

	e.group, err = dist.New(dist.Config{
		Ranks:      ecfg.Ranks,
		Clock:      ecfg.Clock,
		Timeout:    ecfg.Timeout,
		SlowFactor: ecfg.SlowFactor,
		Obs:        cfg.Obs,
		Down:       meta.Evicted,
	})
	if err != nil {
		return nil, err
	}
	if ecfg.RankFaults != nil {
		rc := *ecfg.RankFaults
		if rc.Clock == nil {
			rc.Clock = ecfg.Clock
		}
		e.inj = fault.NewRankInjector(rc)
	}
	sched := nn.WarmupSchedule{Base: cfg.LR, WarmupSteps: cfg.Warmup}

	res := &Result{}
	roll := newEpochRoll(cfg.Obs)
	evSeen := 0
	step := meta.Step
	for epoch := meta.Epoch; !cfg.done(epoch, step); epoch++ {
		it := source.EpochBatches(epoch)
		if it == nil {
			return nil, fmt.Errorf("train: batch source yielded no epoch %d iterator (tenant detached?)", epoch)
		}
		var sum float64
		steps := 0
		full := false
		for !cfg.done(epoch, step) {
			b, err := it.Next()
			if err == nil && b == nil {
				full = true
				break
			}
			var loss float64
			if err == nil {
				loss, err = e.step(b, step, sched.At(step))
			}
			if err != nil {
				it.Close()
				return nil, err
			}
			// Attribute any evictions absorbed during this step.
			for _, ev := range e.group.Evictions()[evSeen:] {
				res.Evictions = append(res.Evictions, ev)
				res.EvictionSteps = append(res.EvictionSteps, step)
				evSeen++
			}
			res.StepLosses = append(res.StepLosses, loss)
			sum += loss
			steps++
			step++
		}
		res.Epochs = append(res.Epochs, roll.epoch(it))
		it.Close()
		if steps == 0 {
			// Every sample skipped (or the dataset is empty): without this
			// guard a fully degraded epoch would loop forever.
			return nil, fmt.Errorf("train: epoch %d produced no batches", epoch)
		}
		if cfg.Steps <= 0 {
			res.Losses = append(res.Losses, sum/float64(steps))
		}
		if full {
			// Snapshots are taken only at true epoch boundaries, never at a
			// mid-epoch step cutoff, so a resumed run replays no batch.
			if err := e.checkpoint(cfg, epoch+1, step); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Steps > 0 {
		res.Losses = res.StepLosses
	}
	res.Alive = e.group.Alive()
	res.Generations = e.group.Generation()
	res.Stragglers = e.group.Stragglers()
	if e.inj != nil {
		res.RankLog = e.inj.Log()
	}
	if dataInj != nil {
		res.Injections = dataInj.Log()
	}
	if cfg.Obs != nil {
		res.Metrics = cfg.Obs.Snapshot()
	}
	return res, nil
}

// checkpoint snapshots the lowest live replica after `epoch` completed
// epochs, recording the ranks already lost.
func (e *engine) checkpoint(cfg Config, epoch, step int) error {
	var down []int
	for r := range e.replicas {
		if !e.group.Live(r) {
			down = append(down, r)
		}
	}
	leader := e.group.Alive()[0]
	return cfg.saveCheckpoint(e.spec.app, epoch, step, e.replicas[leader], e.opts[leader], down)
}

// rankOutcome is one rank's result for one step.
type rankOutcome struct {
	loss float64 // mean loss over the rank's shard
	size int     // shard size in samples
	died bool    // this rank left the group during the step
	err  error   // non-recoverable failure
}

// step runs one synchronous optimizer step across the live ranks: shard
// the batch, inject any scheduled rank faults, compute local gradients,
// allreduce them share-weighted, and apply the identical update everywhere.
// It returns the step's global loss: the shard-weighted mean of the
// surviving ranks' losses, so a lone replica reports its loss unchanged.
func (e *engine) step(b *pipeline.Batch, step int, lr float64) (float64, error) {
	alive := e.group.Alive()
	n, m := len(b.Data), len(alive)
	if n < m {
		return 0, fmt.Errorf("train: batch of %d samples is smaller than the %d live ranks", n, m)
	}
	// Contiguous shards over the live ranks in id order: sizes differ by at
	// most one, and the allreduce weights each rank's gradient by its share
	// of the batch so uneven shards still yield the exact global batch mean.
	base, rem := n/m, n%m
	outs := make([]rankOutcome, len(e.replicas))
	var wg sync.WaitGroup
	off := 0
	for i, r := range alive {
		size := base
		if i < rem {
			size++
		}
		wg.Add(1)
		go func(rank, lo, hi int) {
			defer wg.Done()
			outs[rank] = e.rankStep(b, rank, step, lo, hi, lr)
		}(r, off, off+size)
		off += size
	}
	wg.Wait()

	kept := 0
	for _, r := range alive {
		if outs[r].err != nil {
			return 0, outs[r].err
		}
		if !outs[r].died {
			kept += outs[r].size
		}
	}
	if kept == 0 {
		return 0, fmt.Errorf("train: all ranks lost at step %d", step)
	}
	var loss float64
	for _, r := range alive {
		if o := outs[r]; !o.died {
			loss += o.loss * (float64(o.size) / float64(kept))
		}
	}
	return loss, nil
}

// rankStep is one rank's share of a step. The gradient synchronization
// flattens every parameter gradient scaled by the rank's share of the batch
// into a single buffer, appends the share, and allreduce-sums it: dividing
// by the summed share afterwards gives the exact global batch mean even
// when shard sizes differ or a rank dies mid-step (its samples simply drop
// out of the weighted sum). A lone replica's share is exactly 1, so its
// gradients pass through unchanged. On a *RankError the local gradients are
// untouched, so the retry refills the buffer and re-runs the collective on
// the rebuilt ring.
func (e *engine) rankStep(b *pipeline.Batch, rank, step, lo, hi int, lr float64) rankOutcome {
	if e.inj != nil {
		if kind, ok := e.inj.At(rank, step); ok {
			switch kind {
			case fault.CrashRank:
				e.group.Leave(rank, "crash")
				return rankOutcome{died: true}
			case fault.HangRank:
				// Never arrive at the collective; the goroutine parks until
				// the group's deadline gives up on this rank.
				<-e.group.Departed(rank)
				return rankOutcome{died: true}
			}
			// SlowRank already stalled inside At via the injector's clock.
		}
	}

	x, y, err := e.spec.batch(b, lo, hi)
	if err != nil {
		return rankOutcome{err: err}
	}
	model, opt := e.replicas[rank], e.opts[rank]
	model.ZeroGrad()
	loss, grad := e.spec.loss(model, x, y)
	model.Backward(grad)

	params := model.Params()
	total := 0
	for _, p := range params {
		total += len(p.G)
	}
	buf := make([]float32, total+1)
	w := float32(hi-lo) / float32(len(b.Data))
	fill := func() {
		o := 0
		for _, p := range params {
			for i, g := range p.G {
				buf[o+i] = g * w
			}
			o += len(p.G)
		}
		buf[total] = w
	}

	// Bounded retry: each *RankError consumes at least one eviction, and the
	// group can only shrink Size()-1 times before the ring is a singleton.
	for attempt := 0; attempt < e.group.Size(); attempt++ {
		fill()
		err := e.group.AllReduceSum(rank, buf)
		if err == nil {
			tw := buf[total]
			if tw <= 0 {
				return rankOutcome{err: fmt.Errorf("train: rank %d allreduced a non-positive batch share %v", rank, tw)}
			}
			inv := 1 / tw
			o := 0
			for _, p := range params {
				for i := range p.G {
					p.G[i] = buf[o+i] * inv
				}
				o += len(p.G)
			}
			opt.SetLR(lr)
			opt.Step(params)
			return rankOutcome{loss: loss, size: hi - lo}
		}
		var re *dist.RankError
		if errors.As(err, &re) {
			if re.Self {
				return rankOutcome{died: true}
			}
			continue // ring rebuilt; re-run the interrupted collective
		}
		return rankOutcome{err: err}
	}
	return rankOutcome{err: fmt.Errorf("train: rank %d exhausted allreduce retries at step %d", rank, step)}
}
