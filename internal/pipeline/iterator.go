package pipeline

import (
	"errors"
	"sync"

	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/trace"
)

// iterObs bundles the iterator's observability handles. The zero value (no
// registry) leaves every handle nil, so each instrumentation site costs one
// nil check. The cache counters are registered only when the loader has a
// cache, so uncached runs snapshot exactly the metric set they always did.
type iterObs struct {
	tr                                     *obs.Tracer
	read, decode, augment, prefetchWait    *obs.StageTimer
	decoded, skipped, bad                  *obs.Counter
	retried, batches                       *obs.Counter
	errTransient, errPermanent             *obs.Counter
	panics, stalls                         *obs.Counter
	queueDepth                             *obs.Gauge
	cacheHits, cacheMisses, cacheEvictions *obs.Counter
	cacheQuarantined                       *obs.Counter
}

// newIterObs resolves every handle the iterator's stages will touch, once.
// The stage timers are pre-resolved StageTimers so the per-sample span sites
// never hit the registry; the augment timer is resolved only when an augment
// stage will actually run, and the decode timer carries the configured
// plugin's stage name, so snapshots list exactly the stages of this DAG.
func newIterObs(reg *obs.Registry, clock trace.Clock, cached bool, decodeStage string, augmented bool) iterObs {
	if reg == nil {
		return iterObs{}
	}
	tr := obs.NewTracer(reg, clock)
	ob := iterObs{
		tr:           tr,
		read:         tr.Stage("pipeline.read"),
		decode:       tr.Stage("pipeline." + decodeStage),
		prefetchWait: tr.Stage("pipeline.prefetch_wait"),
		decoded:      reg.Counter("pipeline.samples.decoded"),
		skipped:      reg.Counter("pipeline.samples.skipped"),
		bad:          reg.Counter("pipeline.samples.bad"),
		retried:      reg.Counter("pipeline.retries"),
		batches:      reg.Counter("pipeline.batches"),
		errTransient: reg.Counter("pipeline.errors.transient"),
		errPermanent: reg.Counter("pipeline.errors.permanent"),
		panics:       reg.Counter("pipeline.worker.panics"),
		stalls:       reg.Counter("pipeline.worker.stalls"),
		queueDepth:   reg.Gauge("pipeline.queue_depth"),
	}
	if augmented {
		ob.augment = tr.Stage("pipeline.augment")
	}
	if cached {
		ob.cacheHits = reg.Counter("pipeline.cache.hits")
		ob.cacheMisses = reg.Counter("pipeline.cache.misses")
		ob.cacheEvictions = reg.Counter("pipeline.cache.evictions")
		ob.cacheQuarantined = reg.Counter("pipeline.cache.quarantined")
	}
	return ob
}

// noteError classifies one failed sample attempt into the error-kind
// counters. Each attempt counts once, so under a retry policy the transient
// count equals the number of retryable failures observed, reconciling
// exactly with the fault injector's log.
func (ob iterObs) noteError(err error) {
	if ob.tr == nil {
		return
	}
	if obs.ErrorKind(err) == "transient" {
		ob.errTransient.Inc()
	} else {
		ob.errPermanent.Inc()
	}
}

// Iterator yields batches of one epoch in schedule order. Its stage
// workers are the only goroutines an epoch runs: Next admits samples,
// restores schedule order and ends the epoch on the caller's goroutine.
// Next is safe for concurrent callers; each call returns a distinct batch.
type Iterator struct {
	loader *Loader
	order  []int
	clock  trace.Clock
	ob     iterObs
	sup    *StageSupervisor

	// abort tears the DAG down on Close; done closes once Next took the
	// last scheduled position, and the workers exit on it. readq feeds the
	// head stage — admissions, retries and watchdog re-admissions alike —
	// and completions carries terminal outcomes to Next in completion
	// order. Each holds Prefetch runs: every run carries at least one of
	// the at most Prefetch samples in flight, so no send into either waits.
	abort       chan struct{}
	stopOnce    sync.Once
	done        chan struct{}
	readq       chan *run[item[struct{}]]
	completions chan *run[outcome]
	// runLen is the admission unit; window, a whole number of runs, is the
	// span of schedule positions admitted ahead of the next one taken.
	runLen, window int

	// mu serializes Next. ring is the reorder buffer: seq's outcome waits
	// in ring[seq%Prefetch] until next reaches it — a slot that is free,
	// because every pending seq lies in [next, next+window). ready counts
	// the filled slots.
	mu    sync.Mutex
	ring  []pendingSlot
	next  int
	ready int

	statsMu  sync.Mutex // guards stats (written by stage goroutines and Next)
	stats    Stats
	fatalErr error // first supervisor abort; surfaced by Next after teardown
}

// pendingSlot is one reorder-ring slot: an outcome waiting for its turn.
type pendingSlot struct {
	o  outcome
	ok bool
}

// fatal records the supervision layer's terminal error (first one wins) and
// tears the epoch down. Next surfaces the error once it can take no further
// position: the epoch ends loudly, never by hanging.
func (it *Iterator) fatal(err error) {
	it.statsMu.Lock()
	if it.fatalErr == nil {
		it.fatalErr = err
	}
	it.statsMu.Unlock()
	it.Close()
}

func (it *Iterator) fatalError() error {
	it.statsMu.Lock()
	defer it.statsMu.Unlock()
	return it.fatalErr
}

// start launches the epoch's stage workers:
//
//	Epoch, Next ──admit──▶ read/cache ──▶ decode ──▶ [augment] ──▶ completions ──▶ Next
//	                         ▲ │             │           │
//	                         └─┴─────────────┴───────────┘ failures, judged by their worker:
//	                            transient: back to read; terminal: to completions
//
// Each stage is a bounded worker pool; every send is abort-guarded. Samples
// travel in runs of it.runLen (see run): Epoch admits the first
// Prefetch/runLen runs and Next admits one more each time it takes a run's
// last position, so at most Prefetch samples are in flight; the queues
// between stages hold ceil(Prefetch/runLen) runs. The worker whose attempt
// failed judges it (hop.fail): a transient failure with retry budget left
// re-enters the read stage as a run of one (re-reading the sample, so
// fault-injector access counts match the monolithic loader); an exhausted
// or permanent one goes to completions as a terminal outcome and occupies
// its schedule position.
func (it *Iterator) start() {
	l := it.loader
	cfg := l.cfg
	runs := &l.runs
	depth := (cfg.Prefetch + it.runLen - 1) / it.runLen
	sup := it.sup
	readq, completions, abort, done := it.readq, it.completions, it.abort, it.done
	decodeq := make(chan *run[item[rawSample]], depth)

	// Supervisor wiring: terminal aborts surface through Next; abandoned
	// (stalled) samples re-enter the head stage at a fresh generation with a
	// reset attempt count — the wedge was the stage's fault, not the
	// sample's, so its retry budget survives intact.
	sup.fatalFn = it.fatal
	sup.onPanic = it.notePanicked
	sup.onStall = it.noteStalled
	sup.readmit = func(seq, index, attempt, gen int) bool {
		return sendItem(readq, runs.ticks.one(item[struct{}]{seq: seq, index: index, attempt: attempt, gen: gen}), abort)
	}
	// Queue probes feed the stall snapshot, so only a watched DAG (one
	// with a stall deadline) registers them.
	if !sup.passive {
		sup.probe("read", func() int { return len(readq) })
		sup.probe("decode", func() int { return len(decodeq) })
		sup.probe("completion", func() int { return len(completions) })
	}

	// toOutcome hands a decoded run to Next as a run of outcomes.
	toOutcome := func(r *run[item[decodedSample]]) bool {
		o := runs.outs.get()
		for _, v := range r.items {
			o.items = append(o.items, outcome{seq: v.seq, index: v.index, data: v.val.data, label: v.val.label})
		}
		runs.dec.put(r)
		return sendItem(completions, o, abort)
	}
	// discardDecoded recycles the pooled tensor of an abandoned attempt's
	// decoded output — the re-admitted generation decodes into a fresh one.
	discardDecoded := func(v decodedSample) { l.pool.PutTensor(v.data) }
	// fail is every stage's retry judgement: transient failures with retry
	// budget left re-enter the read stage (after their backoff elapses on
	// the iterator's clock); everything else is terminal.
	pol := cfg.Resilience
	fail := func(f failure) bool {
		it.ob.noteError(f.err)
		if errors.Is(f.err, fault.Transient) && f.attempt < pol.MaxRetries {
			it.noteRetried()
			retry := runs.ticks.one(item[struct{}]{seq: f.seq, index: f.index, attempt: f.attempt + 1, gen: f.gen})
			if s, ok := it.clock.(trace.Sleeper); ok {
				if delay := pol.backoff(f.attempt); delay > 0 {
					sup.Go("retry-backoff", func() {
						s.Sleep(delay)
						sendItem(readq, retry, abort)
					})
					return true
				}
			}
			return sendItem(readq, retry, abort)
		}
		return sendItem(completions, runs.outs.one(outcome{seq: f.seq, index: f.index, err: asSampleError(f.err, f.index)}), abort)
	}

	// Read (or cache) stage: the head, fed by admissions and retries.
	var head Stage[struct{}, rawSample] = &ReadStage{ds: l.ds, ob: it.ob}
	if l.cache != nil {
		head = &CacheStage{read: &ReadStage{ds: l.ds, ob: it.ob}, cache: l.cache, ob: it.ob}
	}
	runPool(sup, head, cfg.Stages.ReadWorkers, hop[struct{}, rawSample]{
		in: readq, ins: &runs.ticks, outs: &runs.raw,
		emit: func(r *run[item[rawSample]]) bool { return sendItem(decodeq, r, abort) },
		fail: fail,
	}, abort, done)

	// Decode stage, emitting into augment when configured, else to Next.
	dec := &DecodeStage{
		format: cfg.Format, plugin: cfg.Plugin, device: cfg.Device,
		cpuWorkers: cfg.CPUWorkers, pool: l.pool, clock: it.clock,
		timeline: cfg.Trace, tag: "decode-" + cfg.Plugin.String(), ob: it.ob,
	}
	emitDecoded := toOutcome
	if cfg.Augment != nil {
		augmentq := make(chan *run[item[decodedSample]], depth)
		if !sup.passive {
			sup.probe("augment", func() int { return len(augmentq) })
		}
		emitDecoded = func(r *run[item[decodedSample]]) bool { return sendItem(augmentq, r, abort) }
		runPool(sup, Stage[decodedSample, decodedSample](&AugmentStage{fn: cfg.Augment, ob: it.ob}), cfg.Stages.AugmentWorkers, hop[decodedSample, decodedSample]{
			in: augmentq, ins: &runs.dec, outs: &runs.dec,
			emit: toOutcome, fail: fail, discard: discardDecoded,
		}, abort, done)
	}
	runPool(sup, Stage[rawSample, decodedSample](dec), cfg.Stages.DecodeWorkers, hop[rawSample, decodedSample]{
		in: decodeq, ins: &runs.raw, outs: &runs.dec,
		emit: emitDecoded, fail: fail, discard: discardDecoded,
	}, abort, done)

	// Stall watchdog: runs only with a deadline and an alarm-capable clock
	// (wall clocks and trace.VirtualClock both qualify).
	if cfg.Supervise.StallDeadline > 0 {
		if alarm, ok := it.clock.(trace.Alarm); ok {
			sup.Go("watchdog", func() { sup.watch(alarm, abort, done) })
		}
	}
}

// admit sends the run of schedule positions [lo, lo+runLen) to the head
// stage; readq has room for it (see Iterator).
func (it *Iterator) admit(lo int) {
	r := it.loader.runs.ticks.get()
	for seq := lo; seq < min(lo+it.runLen, len(it.order)); seq++ {
		r.items = append(r.items, item[struct{}]{seq: seq, index: it.order[seq]})
	}
	sendItem(it.readq, r, it.abort)
}

// Next returns the next batch, or (nil, nil) at the end of the epoch.
//
// Batches are drawn from the loader's slab pool: call Batch.Release once a
// batch's tensors are dead to recycle them into later batches (consumers
// that retain tensors just skip Release). Batches Next never returns —
// empty at end of epoch, dropped partials, error exits — release here.
//
// Sample failures surface as typed errors: with the zero Resilience policy
// the first failed sample ends the epoch with a *SampleError carrying its
// dataset index; with MaxBadSamples > 0 failed samples are skipped and
// accounted in Stats until the quota is exceeded, at which point Next
// returns an *EpochError naming every bad sample. Either way the iterator
// is closed, and Close/Drain remain safe to call afterwards.
//
// Supervision failures — a stage over its restart budget (*SupervisorError)
// or a stall the watchdog may not route around (*StallError) — tear the DAG
// down and surface here as the epoch's terminal error.
//
//scipp:hotpath
func (it *Iterator) Next() (*Batch, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	pol := it.loader.cfg.Resilience
	want := it.loader.cfg.Batch
	b := it.loader.pool.getBatch(want)
	for len(b.Data) < want {
		o, ok := it.take()
		if !ok {
			if err := it.fatalError(); err != nil {
				b.Release()
				return nil, err
			}
			break
		}
		if o.err != nil {
			se := asSampleError(o.err, o.index)
			if it.recordBad(se, pol.MaxBadSamples) {
				continue // skipped within quota: the batch draws the next sample
			}
			b.Release()
			it.Close()
			if pol.MaxBadSamples > 0 {
				st := it.Stats()
				return nil, &EpochError{Quota: pol.MaxBadSamples, Indices: st.BadSamples, Errors: st.Errors}
			}
			return nil, se
		}
		b.Data = append(b.Data, o.data)
		b.Labels = append(b.Labels, o.label)
		b.Indices = append(b.Indices, o.index)
		it.noteDecoded()
	}
	if len(b.Data) == 0 {
		b.Release()
		return nil, nil
	}
	if len(b.Data) < want && it.loader.cfg.DropLast {
		b.Release()
		return nil, nil
	}
	it.ob.batches.Inc()
	return b, nil
}

// take returns the outcome at schedule position next, receiving completed
// runs into the ring until it arrives, under one prefetch_wait span. Taking
// a run's last position admits the run window positions ahead; taking the
// epoch's last position closes done. ok is false at the end of the epoch
// and once the epoch was torn down. The caller holds mu.
func (it *Iterator) take() (outcome, bool) {
	if it.next == len(it.order) {
		return outcome{}, false
	}
	it.ob.queueDepth.Set(float64(it.ready))
	wsp := it.ob.prefetchWait.Start()
	slot := &it.ring[it.next%len(it.ring)]
	for !slot.ok {
		var r *run[outcome]
		select {
		case r = <-it.completions:
		case <-it.abort:
			wsp.End()
			return outcome{}, false
		}
		for _, o := range r.items {
			// A taken or filled position means a duplicate — impossible
			// while the supervisor's exactly-one-emit-per-seq invariant
			// holds, but dropped rather than miscounted if it ever breaks.
			s := &it.ring[o.seq%len(it.ring)]
			if o.seq < it.next || s.ok {
				continue
			}
			*s = pendingSlot{o: o, ok: true}
			it.ready++
		}
		it.loader.runs.outs.put(r)
	}
	wsp.End()
	o := slot.o
	*slot = pendingSlot{}
	it.ready--
	it.next++
	if it.next == len(it.order) {
		close(it.done)
	} else if lo := it.next - it.runLen + it.window; it.next%it.runLen == 0 && lo < len(it.order) {
		it.admit(lo)
	}
	return o, true
}

// Close abandons the epoch: the abort channel tears down every stage pool
// and wakes a Next blocked on completions. Safe to call repeatedly and
// concurrently with Next.
func (it *Iterator) Close() {
	it.stopOnce.Do(func() { close(it.abort) })
}

// Drain runs the full epoch, releasing each batch back to the slab pool,
// and returns the number of samples decoded. Used by throughput
// measurements, which it keeps allocation-steady.
func (it *Iterator) Drain() (int, error) {
	n := 0
	for {
		b, err := it.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Size()
		b.Release()
	}
}
