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
