package pipeline

import (
	"sync"

	"scipp/internal/tensor"
)

// Stage is one node of the staged DAG: a typed per-item transform executed
// by a bounded worker pool. The pool moves samples between stages in runs
// (see run), but a stage still sees one sample at a time and never blocks
// on channels itself — queueing, backpressure, abort, retry judgement and
// accounting all live in the pool runner, so a Stage implementation is
// just the work: read bytes, decode, augment. Stages self-instrument (each
// opens its own obs span per sample) so span boundaries stay exactly where
// the monolithic loader had them.
type Stage[In, Out any] interface {
	// Name identifies the stage in diagnostics.
	Name() string
	// Process transforms one sample. index is the sample's dataset index.
	Process(index int, in In) (Out, error)
}

// item carries one scheduled sample between stages.
type item[T any] struct {
	// seq is the sample's position in the epoch schedule; batches are
	// reassembled in seq order downstream.
	seq int
	// index is the dataset index.
	index int
	// attempt counts the retries consumed so far (0 on the first pass).
	attempt int
	// gen is the supervision generation: bumped each time the stall
	// watchdog abandons a wedged attempt of this seq and re-admits it, so
	// the abandoned attempt's late output can be recognized and suppressed.
	gen int
	// val is the stage payload.
	val T
}

// failure is one failed stage attempt, judged by the worker that made it
// (see hop.fail).
type failure struct {
	seq, index, attempt, gen int
	err                      error
}

// outcome is a sample's terminal result entering Next's reorder ring:
// decoded data, or the error that exhausted its retries.
type outcome struct {
	seq, index  int
	data, label *tensor.Tensor
	err         error
}

// sendItem delivers v on out unless the epoch aborts first. Every send in
// the stage machinery goes through here (or an equivalent select): a bare
// send could block forever once the consumer is gone, wedging the epoch —
// the one discipline the guardedsend rule enforces here, in internal/dist
// and in internal/dataserve.
//
//scipp:hotpath
func sendItem[T any](out chan<- T, v T, abort <-chan struct{}) bool {
	select {
	case out <- v:
		return true
	case <-abort:
		return false
	}
}

// maxRunLen caps the run length: past eight samples a run only adds
// latency to the first sample it carries, and channel cost is already
// amortized.
const maxRunLen = 8

// runLen derives the DAG's unit of transfer from the loader's shape: enough
// runs in flight to keep twice the widest stage pool busy, so
// R = prefetch / (2 × widest), clamped to [1, min(batch, maxRunLen)]. Small
// prefetch windows get R = 1 — one sample per channel operation.
func runLen(prefetch, batch, widest int) int {
	return max(1, min(prefetch/(2*max(widest, 1)), batch, maxRunLen))
}

// run is the DAG's unit of transfer: up to runLen consecutive samples that
// move between stages with one channel operation. Channels carry pointers
// to runs drawn from a loader-owned runFree list, so a hop allocates
// nothing. Per-sample work stays per sample: each member gets its own
// Process call, span, supervision key and retry judgement, and a failed
// member leaves its run and is judged alone.
type run[E any] struct {
	items []E
}

// runFree is a freelist of runs of one element type. It is owned by the
// Loader, so an epoch's runs are the previous epoch's, and it is safe for
// concurrent use by every stage worker.
type runFree[E any] struct {
	mu   sync.Mutex
	free []*run[E]
}

// get returns an empty run with room for maxRunLen members.
func (f *runFree[E]) get() *run[E] {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return r
	}
	f.mu.Unlock()
	return &run[E]{items: make([]E, 0, maxRunLen)}
}

// put empties r — dropping its payload references — and shelves it. The
// caller must not use r afterwards.
func (f *runFree[E]) put(r *run[E]) {
	clear(r.items)
	r.items = r.items[:0]
	f.mu.Lock()
	f.free = append(f.free, r)
	f.mu.Unlock()
}

// one returns a run carrying the single element v: retries, watchdog
// re-admissions and terminal failures travel as runs of one.
func (f *runFree[E]) one(v E) *run[E] {
	r := f.get()
	r.items = append(r.items, v)
	return r
}

// runLists are the Loader's run freelists, one per hop payload type.
type runLists struct {
	ticks runFree[item[struct{}]]      // admissions and retries → read
	raw   runFree[item[rawSample]]     // read → decode
	dec   runFree[item[decodedSample]] // decode → augment
	outs  runFree[outcome]             // → Next
}

// hop is one stage pool's wiring: the queue it consumes, the freelists of
// its input and output runs, and where its results go. emit takes ownership
// of a non-empty output run. fail judges one failed member under the
// Resilience policy — back into the head stage's queue for a retry, or into
// Next's completions as a terminal outcome — on the worker's own goroutine.
// discard, when non-nil, disposes the output of an attempt the watchdog
// abandoned while its run was held (the sample was re-admitted; this copy's
// pooled buffers must recycle, not emit). emit and fail report false once
// the epoch aborted.
type hop[In, Out any] struct {
	in      <-chan *run[item[In]]
	ins     *runFree[item[In]]
	outs    *runFree[item[Out]]
	emit    func(*run[item[Out]]) bool
	fail    func(failure) bool
	discard func(Out)
}

// stageWorker builds the worker body of one stage pool, fenced by the
// supervisor and registered with it for watchdog restarts; the epoch state
// builds it once and launches it for every epoch. A worker takes one run
// per channel operation, registers every member in flight with the stall
// watchdog (admitRun), applies st to each member through superviseProcess
// — panic recovery plus the abandonment check — and collects the successes
// into one output run. A failed member is judged alone, through h.fail.
// Before the output run is emitted, settleRun deregisters its members and
// drops, through h.discard, those the watchdog abandoned while this worker
// held them. Workers exit when the epoch's stop channel closes — at the
// end of the epoch only once Next took every scheduled position, so no
// worker can still hold a run by then and nothing is lost.
func stageWorker[In, Out any](es *epochState, st Stage[In, Out], h hop[In, Out]) func() {
	sup, name := es.sup, st.Name()
	work := func() {
		stop := es.stop
		for {
			var in *run[item[In]]
			select {
			case in = <-h.in:
			case <-stop:
				return
			}
			if !runStage(sup, st, name, h, in) {
				return
			}
		}
	}
	sup.registerWorker(name, work)
	return sup.fence(name, work)
}

// runStage is one worker step over the run in: it reports false once the
// epoch stopped while a result was being routed.
//
//scipp:hotpath
func runStage[In, Out any](sup *StageSupervisor, st Stage[In, Out], name string, h hop[In, Out], in *run[item[In]]) bool {
	admitRun(sup, name, in)
	out := h.outs.get()
	for _, v := range in.items {
		res, err, ok := superviseProcess(sup, st, name, v)
		if !ok {
			// Abandoned attempt: a newer generation owns this seq.
			if err == nil && h.discard != nil {
				h.discard(res)
			}
			continue
		}
		if err != nil {
			if !h.fail(failure{seq: v.seq, index: v.index, attempt: v.attempt, gen: v.gen, err: err}) {
				return false
			}
			continue
		}
		out.items = append(out.items, item[Out]{seq: v.seq, index: v.index, attempt: v.attempt, gen: v.gen, val: res})
	}
	h.ins.put(in)
	settleRun(sup, out, h.discard)
	if len(out.items) == 0 {
		h.outs.put(out)
		return true
	}
	return h.emit(out)
}
