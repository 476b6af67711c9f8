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

// Release hands the padded batch — its struct, its slices and its two
// tensors — back to the slab pool, under one pool lock. Idempotent,
// nil-safe, and a no-op for batches not drawn from a pool. Labels are never
// recycled — the Dataset owns them.
func (pb *PaddedBatch) Release() {
	if pb == nil || pb.pool == nil || pb.released {
		return
	}
	pb.released = true
	pb.pool.putPadded(pb)
}

// Padded assembles the batch's per-sample tensors into one padded tensor
// pair. Samples must agree on rank and every leading axis; only the trailing
// axis may vary (including down to zero — an empty sample contributes an
// all-zero mask row). When every sample has the same length, Data is
// bit-identical to train.StackData over the same samples: the fixed-shape
// path is the degenerate case of the ragged one, not a separate code path.
//
// The padded batch and its tensors are drawn from the batch's slab pool;
// recycled slab memory is unspecified, so the padding region is zeroed
// explicitly. F16 and I16 samples widen row by row straight into Data. The
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

	var pb *PaddedBatch
	if b.pool != nil {
		pb = b.pool.getPadded()
	} else {
		pb = new(PaddedBatch)
	}
	var dims [4]int // holds Data's shape on the stack up to rank 3
	pb.Data = b.allocPadded(append(append(append(tensor.Shape(dims[:0]), n), lead...), maxLen))
	pb.Mask = b.allocPadded(tensor.Shape{n, maxLen})
	pb.Lengths = pb.Lengths[:0]
	pb.Labels = append(pb.Labels[:0], b.Labels...)
	pb.Indices = append(pb.Indices[:0], b.Indices...)
	leadElems := lead.Elems()
	for i, s := range b.Data {
		li := s.Shape[rank-1]
		pb.Lengths = append(pb.Lengths, li)
		base := i * leadElems * maxLen
		for r := 0; r < leadElems; r++ {
			row := pb.Data.F32s[base+r*maxLen : base+(r+1)*maxLen]
			s.WidenF32(row[:li], r*li)
			clear(row[li:])
		}
		mrow := pb.Mask.F32s[i*maxLen : (i+1)*maxLen]
		for t := range mrow[:li] {
			mrow[t] = 1
		}
		clear(mrow[li:])
	}
	return pb, nil
}

func (b *Batch) allocPadded(shape tensor.Shape) *tensor.Tensor {
	if b.pool != nil {
		return b.pool.GetTensor(tensor.F32, shape)
	}
	return tensor.New(tensor.F32, shape...)
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
