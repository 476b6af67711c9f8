package pipeline

import "scipp/internal/tensor"

// Stage is one node of the staged DAG: a typed per-item transform executed
// by a bounded worker pool. A stage sees one sample at a time and never
// blocks on channels itself — queueing, backpressure, abort, retry routing
// and accounting all live in the pool runner, so a Stage implementation is
// just the work: read bytes, decode, augment. Stages self-instrument (each
// opens its own obs span) so span boundaries stay exactly where the
// monolithic loader had them.
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

// failure is one failed stage attempt, routed to the retry judge.
type failure struct {
	seq, index, attempt, gen int
	err                      error
}

// outcome is a sample's terminal result entering batch assembly: decoded
// data, or the error that exhausted its retries.
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

// runPool launches the worker pool of one stage under sup. Workers pull
// items from in (and, for the head stage, the retry feed), apply st through
// superviseProcess — panic recovery plus inflight registration for the stall
// watchdog — and hand successes to emit and failures to fail. onErr observes
// every failed attempt (error-kind accounting). discard, when non-nil,
// disposes the output of an attempt the watchdog abandoned while it ran (the
// sample was re-admitted; this copy's pooled buffers must recycle, not
// emit). Workers exit when the epoch aborts or when done closes — done only
// closes after every scheduled sample reached a terminal outcome, so no
// worker can still hold an item by then and nothing is lost.
//
//scipp:hotpath
func runPool[In, Out any](sup *StageSupervisor, st Stage[In, Out], workers int,
	in, retry <-chan item[In],
	emit func(item[Out]) bool, fail chan<- failure,
	abort, done <-chan struct{}, onErr func(error), discard func(Out)) {

	name := st.Name()
	work := func() {
		for {
			var v item[In]
			select {
			case v = <-in:
			case v = <-retry: // nil for every stage but the head: blocks forever
			case <-abort:
				return
			case <-done:
				return
			}
			out, err, ok := superviseProcess(sup, st, name, v)
			if !ok {
				// Abandoned attempt: a newer generation owns this seq.
				if err == nil && discard != nil {
					discard(out)
				}
				continue
			}
			if err != nil {
				onErr(err)
				if !sendItem(fail, failure{seq: v.seq, index: v.index, attempt: v.attempt, gen: v.gen, err: err}, abort) {
					return
				}
				continue
			}
			if !emit(item[Out]{seq: v.seq, index: v.index, attempt: v.attempt, gen: v.gen, val: out}) {
				return
			}
		}
	}
	sup.registerWorker(name, work)
	for w := 0; w < workers; w++ {
		sup.Go(name, work)
	}
}
