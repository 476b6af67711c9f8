package pipeline

import (
	"sync"

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
	// es is the machinery the epoch runs on, borrowed from the Loader
	// (see epochState). Next hands it back once it takes the last
	// scheduled position or sees the epoch torn down, and sets es to nil;
	// order lies in es's memory and is not read after that either.
	es    *epochState
	order []int
	clock trace.Clock
	ob    iterObs

	// stop closes once Next took the last scheduled position, or on Close:
	// the workers exit on it, and it is every stage send's abort escape.
	stop     chan struct{}
	stopOnce sync.Once
	// runLen is the admission unit; window, a whole number of runs, is the
	// span of schedule positions admitted ahead of the next one taken.
	runLen, window int

	// mu serializes Next. The reorder ring is es.ring: seq's outcome waits
	// in ring[seq%Prefetch] until next reaches it — a slot that is free,
	// because every pending seq lies in [next, next+window). ready counts
	// the filled slots.
	mu    sync.Mutex
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

// admit sends the run of schedule positions [lo, lo+runLen) to the head
// stage; readq has room for it (see epochState).
func (it *Iterator) admit(lo int) {
	r := it.loader.runs.ticks.get()
	for seq := lo; seq < min(lo+it.runLen, len(it.order)); seq++ {
		r.items = append(r.items, item[struct{}]{seq: seq, index: it.order[seq]})
	}
	sendItem(it.es.readq, r, it.stop)
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
// epoch's last position closes stop. ok is false at the end of the epoch
// and once the epoch was torn down; either way the iterator has released
// its epoch state. The caller holds mu.
func (it *Iterator) take() (outcome, bool) {
	es := it.es
	if es == nil {
		return outcome{}, false
	}
	it.ob.queueDepth.Set(float64(it.ready))
	wsp := it.ob.prefetchWait.Start()
	slot := &es.ring[it.next%len(es.ring)]
	for !slot.ok {
		var r *run[outcome]
		select {
		case r = <-es.completions:
		case <-it.stop:
			wsp.End()
			it.release()
			return outcome{}, false
		}
		for _, o := range r.items {
			// A taken or filled position means a duplicate — impossible
			// while the supervisor's exactly-one-emit-per-seq invariant
			// holds, but dropped rather than miscounted if it ever breaks.
			s := &es.ring[o.seq%len(es.ring)]
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
		it.Close()
		it.release()
	} else if lo := it.next - it.runLen + it.window; it.next%it.runLen == 0 && lo < len(it.order) {
		it.admit(lo)
	}
	return o, true
}

// release empties the reorder ring, whose outcomes hold sample tensors
// only a torn-down epoch leaves there, and gives up the iterator's hold on
// the epoch state (see epochState); the iterator does not touch the state
// afterwards. The caller holds mu, or is Epoch.
func (it *Iterator) release() {
	if es := it.es; es != nil {
		it.es, it.order = nil, nil
		clear(es.ring)
		es.sup.drop()
	}
}

// Close abandons the epoch: closing stop tears down every stage pool and
// wakes a Next blocked on completions. Safe to call repeatedly and
// concurrently with Next.
func (it *Iterator) Close() {
	it.stopOnce.Do(func() { close(it.stop) })
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
