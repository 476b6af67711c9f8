package pipeline

import (
	"errors"

	"scipp/internal/fault"
	"scipp/internal/trace"
)

// epochState is the machinery an epoch runs on: the schedule buffer, the
// reorder ring, the queues between stages, the stage structs, their worker
// bodies and the supervisor. The Loader keeps one and resets it on each
// Epoch instead of rebuilding it, so a warm epoch allocates only its
// Iterator and its stop channel. Without Config.Clock the epoch runs on the
// state's own wall clock, re-anchored by each Epoch that takes the state.
//
// An epoch holds its state from Epoch until Next has taken the last
// position (or seen the epoch torn down) and every goroutine the epoch
// started has exited; the supervisor counts both (hold, drop), and the
// last one out hands the state back to the Loader. The workers exit
// asynchronously, so the next Epoch may come before the handback: it then
// builds a second state, and from then on the two alternate. A live
// iterator holds its state, and one abandoned by Close without a further
// Next keeps it for the garbage collector.
type epochState struct {
	l   *Loader
	it  *Iterator // the epoch running on the state
	sup *StageSupervisor
	// stop is it.stop.
	stop <-chan struct{}

	// order is the schedule buffer the default sources write into; a
	// configured Source returns its own slice.
	order []int
	ring  []pendingSlot
	// readq feeds the head stage — admissions, retries and watchdog
	// re-admissions alike — and completions carries terminal outcomes to
	// Next in completion order. Each holds Prefetch runs: every run carries
	// at least one of the at most Prefetch samples in flight, so no send
	// into either waits. decodeq and augmentq (nil without an Augment
	// transform) hold ceil(Prefetch/runLen) runs.
	readq       chan *run[item[struct{}]]
	decodeq     chan *run[item[rawSample]]
	augmentq    chan *run[item[decodedSample]]
	completions chan *run[outcome]

	read  ReadStage
	cache CacheStage
	dec   DecodeStage
	aug   AugmentStage
	pools []stagePool

	// wall is the epoch's clock when Config.Clock is nil; each Epoch that
	// takes the state re-anchors it.
	wall trace.WallClock
}

// stagePool is one stage's worker pool: its width and the fenced worker
// body each of its goroutines runs.
type stagePool struct {
	workers int
	body    func()
}

// newEpochState builds the epoch machinery and wires the DAG:
//
//	Epoch, Next ──admit──▶ read/cache ──▶ decode ──▶ [augment] ──▶ completions ──▶ Next
//	                         ▲ │             │           │
//	                         └─┴─────────────┴───────────┘ failures, judged by their worker:
//	                            transient: back to read; terminal: to completions
//
// Each stage is a bounded worker pool; every send is abort-guarded. Samples
// travel in runs of runLen (see run): Epoch admits the first Prefetch/runLen
// runs and Next admits one more each time it takes a run's last position,
// so at most Prefetch samples are in flight. The worker whose attempt
// failed judges it (hop.fail): a transient failure with retry budget left
// re-enters the read stage as a run of one (re-reading the sample, so
// fault-injector access counts match the monolithic loader); an exhausted
// or permanent one goes to completions as a terminal outcome and occupies
// its schedule position. The closures built here read the running epoch's
// iterator through es.it, so they serve every epoch the state runs.
func (l *Loader) newEpochState() *epochState {
	cfg := l.cfg
	rl := l.runLen()
	depth := (cfg.Prefetch + rl - 1) / rl
	runs := &l.runs
	es := &epochState{
		l:           l,
		ring:        make([]pendingSlot, cfg.Prefetch),
		readq:       make(chan *run[item[struct{}]], cfg.Prefetch),
		decodeq:     make(chan *run[item[rawSample]], depth),
		completions: make(chan *run[outcome], cfg.Prefetch),
		read:        ReadStage{ds: l.ds},
		dec: DecodeStage{
			format: cfg.Format, plugin: cfg.Plugin, device: cfg.Device,
			pool:     l.pool,
			timeline: cfg.Trace, tag: "decode-" + cfg.Plugin.String(),
		},
		aug: AugmentStage{fn: cfg.Augment},
	}
	if cfg.Source == nil {
		es.order = make([]int, 0, l.ds.Len())
	}
	es.cache = CacheStage{read: &es.read, cache: l.cache}
	// Each epoch's reset moves the supervisor to that epoch's clock.
	es.sup = newSupervisor(cfg.Supervise, &es.wall, cfg.Obs)
	sup := es.sup

	// Supervisor wiring: terminal aborts surface through Next; abandoned
	// (stalled) samples re-enter the head stage at a fresh generation with a
	// reset attempt count — the wedge was the stage's fault, not the
	// sample's, so its retry budget survives intact.
	sup.fatalFn = func(err error) { es.it.fatal(err) }
	sup.onPanic = func() { es.it.notePanicked() }
	sup.onStall = func() { es.it.noteStalled() }
	sup.readmit = func(seq, index, attempt, gen int) bool {
		return sendItem(es.readq, runs.ticks.one(item[struct{}]{seq: seq, index: index, attempt: attempt, gen: gen}), es.stop)
	}
	sup.idle = func() { l.putSpare(es) }
	// Queue probes feed the stall snapshot, so only a watched DAG (one
	// with a stall deadline) registers them.
	if !sup.passive {
		sup.probe("read", func() int { return len(es.readq) })
		sup.probe("decode", func() int { return len(es.decodeq) })
		sup.probe("completion", func() int { return len(es.completions) })
	}

	// toOutcome hands a decoded run to Next as a run of outcomes.
	toOutcome := func(r *run[item[decodedSample]]) bool {
		o := runs.outs.get()
		for _, v := range r.items {
			o.items = append(o.items, outcome{seq: v.seq, index: v.index, data: v.val.data, label: v.val.label})
		}
		runs.dec.put(r)
		return sendItem(es.completions, o, es.stop)
	}
	// discardDecoded recycles the pooled tensor of an abandoned attempt's
	// decoded output — the re-admitted generation decodes into a fresh one.
	discardDecoded := func(v decodedSample) { l.pool.PutTensor(v.data) }
	// fail is every stage's retry judgement: transient failures with retry
	// budget left re-enter the read stage (after their backoff elapses on
	// the iterator's clock); everything else is terminal.
	pol := cfg.Resilience
	fail := func(f failure) bool {
		it := es.it
		it.ob.noteError(f.err)
		if errors.Is(f.err, fault.Transient) && f.attempt < pol.MaxRetries {
			it.noteRetried()
			retry := runs.ticks.one(item[struct{}]{seq: f.seq, index: f.index, attempt: f.attempt + 1, gen: f.gen})
			if s, ok := it.clock.(trace.Sleeper); ok {
				if delay := pol.backoff(f.attempt); delay > 0 {
					stop := es.stop
					sup.Go("retry-backoff", func() {
						s.Sleep(delay)
						sendItem(es.readq, retry, stop)
					})
					return true
				}
			}
			return sendItem(es.readq, retry, es.stop)
		}
		return sendItem(es.completions, runs.outs.one(outcome{seq: f.seq, index: f.index, err: asSampleError(f.err, f.index)}), es.stop)
	}

	// Read (or cache) stage: the head, fed by admissions and retries.
	var head Stage[struct{}, rawSample] = &es.read
	if l.cache != nil {
		head = &es.cache
	}
	es.pools = append(es.pools, stagePool{cfg.Stages.ReadWorkers, stageWorker(es, head, hop[struct{}, rawSample]{
		in: es.readq, ins: &runs.ticks, outs: &runs.raw,
		emit: func(r *run[item[rawSample]]) bool { return sendItem(es.decodeq, r, es.stop) },
		fail: fail,
	})})

	// Decode stage, emitting into augment when configured, else to Next.
	emitDecoded := toOutcome
	if cfg.Augment != nil {
		es.augmentq = make(chan *run[item[decodedSample]], depth)
		if !sup.passive {
			sup.probe("augment", func() int { return len(es.augmentq) })
		}
		emitDecoded = func(r *run[item[decodedSample]]) bool { return sendItem(es.augmentq, r, es.stop) }
		es.pools = append(es.pools, stagePool{cfg.Stages.AugmentWorkers, stageWorker(es, Stage[decodedSample, decodedSample](&es.aug), hop[decodedSample, decodedSample]{
			in: es.augmentq, ins: &runs.dec, outs: &runs.dec,
			emit: toOutcome, fail: fail, discard: discardDecoded,
		})})
	}
	es.pools = append(es.pools, stagePool{cfg.Stages.DecodeWorkers, stageWorker(es, Stage[rawSample, decodedSample](&es.dec), hop[rawSample, decodedSample]{
		in: es.decodeq, ins: &runs.raw, outs: &runs.dec,
		emit: emitDecoded, fail: fail, discard: discardDecoded,
	})})
	return es
}

// takeSpare returns a handed-back epoch state, or nil.
func (l *Loader) takeSpare() *epochState {
	l.spareMu.Lock()
	defer l.spareMu.Unlock()
	n := len(l.spare)
	if n == 0 {
		return nil
	}
	es := l.spare[n-1]
	l.spare[n-1] = nil
	l.spare = l.spare[:n-1]
	return es
}

// putSpare hands an epoch state back for a later Epoch.
func (l *Loader) putSpare(es *epochState) {
	l.spareMu.Lock()
	l.spare = append(l.spare, es)
	l.spareMu.Unlock()
}

// reset readies the state for the epoch of it: the supervisor's per-epoch
// books, the stages' observability handles and clock, empty queues (a
// torn-down epoch can leave runs in them), and the iterator's hold on the
// state. The previous iterator emptied the reorder ring when it let go.
func (es *epochState) reset(it *Iterator) {
	es.it, es.stop = it, it.stop
	es.sup.reset(it.clock)
	es.sup.hold()
	es.read.ob, es.cache.ob, es.aug.ob = it.ob, it.ob, it.ob
	es.dec.ob, es.dec.clock = it.ob, it.clock
	runs := &es.l.runs
	drainRuns(es.readq, &runs.ticks)
	drainRuns(es.decodeq, &runs.raw)
	drainRuns(es.augmentq, &runs.dec)
	drainRuns(es.completions, &runs.outs)
}

// drainRuns shelves every run left in ch.
func drainRuns[E any](ch chan *run[E], free *runFree[E]) {
	for {
		select {
		case r := <-ch:
			free.put(r)
		default:
			return
		}
	}
}

// start launches the epoch's stage workers, and its stall watchdog when
// there is a deadline and an alarm-capable clock (wall clocks and
// trace.VirtualClock both qualify).
func (es *epochState) start() {
	for _, p := range es.pools {
		for w := 0; w < p.workers; w++ {
			es.sup.launch(p.body)
		}
	}
	if es.l.cfg.Supervise.StallDeadline > 0 {
		if alarm, ok := es.it.clock.(trace.Alarm); ok {
			sup, stop := es.sup, es.stop
			sup.Go("watchdog", func() { sup.watch(alarm, stop) })
		}
	}
}
