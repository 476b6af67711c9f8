package pipeline

import "scipp/internal/tensor"

// Batch is one assembled minibatch.
type Batch struct {
	// Data holds the decoded sample tensors, one per sample.
	Data []*tensor.Tensor
	// Labels holds the matching labels.
	Labels []*tensor.Tensor
	// Indices are the dataset indices the batch was drawn from.
	Indices []int

	// pool, when non-nil, is the SlabPool the batch and its sample tensors
	// were drawn from; released marks a batch already handed back.
	pool     *SlabPool
	released bool
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Data) }

// Release hands the batch — its struct, its slices, and its sample tensors
// (never its labels, which the Dataset owns) — back to the loader's slab
// pool for reuse. Call it once the batch's tensors are no longer referenced;
// a consumer that retains tensors simply skips Release and the pool refills
// from the heap. Idempotent, nil-safe, and a no-op for batches that were not
// drawn from a pool.
func (b *Batch) Release() {
	if b == nil || b.pool == nil || b.released {
		return
	}
	b.released = true
	b.pool.putBatch(b)
}

// BatchStage is the sink of the DAG: it restores schedule order over the
// out-of-order stage completions and feeds Iterator.Next, which assembles
// minibatches and applies the resilience policy. Stages ahead of it run
// samples concurrently, so completions arrive in any order; the reorder
// buffer holds each until its schedule position is next. Terminal failures
// occupy their schedule position like successes — Next sees errors exactly
// where the monolithic loader surfaced them.
type BatchStage struct {
	// total is the epoch's scheduled sample count.
	total int
	// window is the admission window (Prefetch): the in-flight cap keeps
	// every pending seq in [next, next+window), so a ring of window slots
	// indexed by seq is the whole reorder buffer.
	window int
	// ordered delivers outcomes to Next in schedule order.
	ordered chan outcome
	// done closes once every scheduled sample reached a terminal outcome;
	// stage workers and the retry judge exit on it.
	done chan struct{}
}

func newBatchStage(total, depth, window int) *BatchStage {
	return &BatchStage{
		total:   total,
		window:  window,
		ordered: make(chan outcome, depth),
		done:    make(chan struct{}),
	}
}

// pendingSlot is one reorder-ring slot: an outcome waiting for its turn.
type pendingSlot struct {
	o  outcome
	ok bool
}

// run consumes runs of terminal outcomes until every scheduled sample is
// accounted, releasing them one by one to the ordered channel in schedule
// order and returning each emptied run to outs. It owns both ordered
// (closed on exit, so Next observes end-of-epoch) and done (closed only on
// full accounting, so an abort never signals completion). Progress is
// counted on released schedule positions, not received messages, so a
// duplicate outcome for an already-released seq — impossible while the
// supervisor's exactly-one-emit-per-seq invariant holds, but the invariant
// the sink must not silently depend on — is dropped instead of stealing a
// later sample's accounting slot and wedging the epoch one short.
func (bs *BatchStage) run(completions <-chan *run[outcome], outs *runFree[outcome], abort <-chan struct{}) {
	defer close(bs.ordered)
	ring := make([]pendingSlot, bs.window)
	next := 0
	for next < bs.total {
		var r *run[outcome]
		select {
		case r = <-completions:
		case <-abort:
			return
		}
		for _, o := range r.items {
			if o.seq < next {
				continue // duplicate of a released position: drop, don't miscount
			}
			ring[o.seq%bs.window] = pendingSlot{o: o, ok: true}
		}
		outs.put(r)
		for {
			slot := &ring[next%bs.window]
			if !slot.ok {
				break
			}
			o := slot.o
			*slot = pendingSlot{}
			next++
			if !sendItem(bs.ordered, o, abort) {
				return
			}
		}
	}
	close(bs.done)
}
