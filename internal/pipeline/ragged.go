package pipeline

import (
	"fmt"

	"scipp/internal/tensor"
)

// PaddedBatch is a ragged minibatch assembled into dense tensors: samples
// that differ along their trailing axis are padded to the longest sample in
// the batch, with a mask distinguishing observations from padding. It is the
// bridge from the per-sample shape contract (decoders report each sample's
// own shape) to models that want one rectangular tensor per step.
type PaddedBatch struct {
	// Data is the batched FP32 tensor [N, lead..., Lmax]: every sample
	// widened to FP32 (exactly as train.StackData does) and padded with
	// zeros beyond its own length.
	Data *tensor.Tensor
	// Mask is the FP32 validity mask [N, Lmax]: 1 where t < Lengths[i], 0 in
	// the padding. The mask is shared across the leading axes — raggedness
	// lives only on the trailing axis.
	Mask *tensor.Tensor
	// Lengths holds each sample's own trailing-axis extent.
	Lengths []int
	// Labels holds the per-sample labels (owned by the Dataset, never
	// pooled), and Indices the dataset indices, exactly as on Batch.
	Labels  []*tensor.Tensor
	Indices []int

	pool     *SlabPool
	released bool
}

// Size returns the number of samples in the batch.
func (pb *PaddedBatch) Size() int { return len(pb.Lengths) }

// Release hands the padded tensors back to the slab pool. Idempotent,
// nil-safe, and a no-op for batches not drawn from a pool. Labels are never
// recycled — the Dataset owns them.
func (pb *PaddedBatch) Release() {
	if pb == nil || pb.pool == nil || pb.released {
		return
	}
	pb.released = true
	pb.pool.PutTensor(pb.Data)
	pb.pool.PutTensor(pb.Mask)
}

// Padded assembles the batch's per-sample tensors into one padded tensor
// pair. Samples must agree on rank and every leading axis; only the trailing
// axis may vary (including down to zero — an empty sample contributes an
// all-zero mask row). When every sample has the same length, Data is
// bit-identical to train.StackData over the same samples: the fixed-shape
// path is the degenerate case of the ragged one, not a separate code path.
//
// The padded tensors are drawn from the batch's slab pool; recycled slab
// memory is unspecified, so the padding region is zeroed explicitly. The
// source batch is left untouched — callers that are done with it release it
// themselves (NextPadded does).
func (b *Batch) Padded() (*PaddedBatch, error) {
	n := len(b.Data)
	if n == 0 {
		return nil, fmt.Errorf("pipeline: cannot pad an empty batch")
	}
	first := b.Data[0]
	rank := len(first.Shape)
	if rank == 0 {
		return nil, fmt.Errorf("pipeline: cannot pad rank-0 samples")
	}
	lead := first.Shape[:rank-1]
	maxLen := 0
	for i, s := range b.Data {
		if s.DT != first.DT {
			return nil, fmt.Errorf("pipeline: sample %d dtype %v != %v", i, s.DT, first.DT)
		}
		if len(s.Shape) != rank || !s.Shape[:rank-1].Equal(lead) {
			return nil, fmt.Errorf("pipeline: sample %d shape %v is not ragged-compatible with %v (only the trailing axis may vary)", i, s.Shape, first.Shape)
		}
		if l := s.Shape[rank-1]; l > maxLen {
			maxLen = l
		}
	}

	leadElems := lead.Elems()
	stride := leadElems * maxLen
	shape := make(tensor.Shape, 0, rank+1)
	shape = append(shape, n)
	shape = append(shape, lead...)
	shape = append(shape, maxLen)

	data := b.allocPadded(tensor.F32, shape)
	mask := b.allocPadded(tensor.F32, tensor.Shape{n, maxLen})
	lengths := make([]int, n)
	for i, s := range b.Data {
		li := s.Shape[rank-1]
		lengths[i] = li
		src := s.ToF32().F32s
		base := i * stride
		for r := 0; r < leadElems; r++ {
			row := data.F32s[base+r*maxLen : base+(r+1)*maxLen]
			clear(row[copy(row, src[r*li:(r+1)*li]):])
		}
		mrow := mask.F32s[i*maxLen : (i+1)*maxLen]
		for t := range mrow[:li] {
			mrow[t] = 1
		}
		clear(mrow[li:])
	}
	return &PaddedBatch{
		Data:    data,
		Mask:    mask,
		Lengths: lengths,
		Labels:  append([]*tensor.Tensor(nil), b.Labels...),
		Indices: append([]int(nil), b.Indices...),
		pool:    b.pool,
	}, nil
}

func (b *Batch) allocPadded(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	if b.pool != nil {
		return b.pool.GetTensor(dt, shape)
	}
	return tensor.New(dt, shape...)
}

// NextPadded returns the next batch in padded form, or (nil, nil) at the end
// of the epoch. It draws the same schedule-ordered batches as Next — errors,
// resilience policy, and accounting are identical — then pads each and
// releases the ragged source tensors back to the pool, so a NextPadded
// consumer recycles slabs exactly like a Next consumer that calls Release.
// Padding is a pure function of the batch's samples, so a seeded schedule
// yields bit-identical padded batches and masks run over run, with or
// without retries and stall re-admissions in between.
func (it *Iterator) NextPadded() (*PaddedBatch, error) {
	b, err := it.Next()
	if err != nil || b == nil {
		return nil, err
	}
	pb, perr := b.Padded()
	b.Release()
	if perr != nil {
		it.Close()
		return nil, perr
	}
	return pb, nil
}
