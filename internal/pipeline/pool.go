package pipeline

import (
	"math/bits"
	"sync"

	"scipp/internal/tensor"
)

// slabClass is the recycling key of a sample slab: tensors are
// interchangeable exactly when their dtype matches and their backing arrays
// belong to the same capacity class. Capacities are rounded up to class
// boundaries (classElems) so that ragged datasets — where nearly every
// sample has a distinct element count — still recycle slabs instead of
// degenerating into one single-tensor freelist per length; a reused slab is
// resliced down to the sample's exact element count, with its shape header
// patched. Fixed-shape datasets collapse to the old behavior: one class,
// exact reuse.
type slabClass struct {
	dt    tensor.DType
	elems int // class capacity bound, not the sample's exact count
}

// minClassElems is the smallest capacity class: tiny tensors of any length
// share one freelist rather than fragmenting across lengths 1..64.
const minClassElems = 64

// classElems rounds a requested element count up to its capacity class: the
// next multiple of an eighth of its power-of-two octave (64, 72, 80, ...,
// 128, 144, ..., 1024, 1152, ...). Worst-case over-allocation is 25% just
// above an octave boundary, amortized well below that — the standard
// size-class trade between fragmentation across classes and slack within
// one.
func classElems(n int) int {
	if n <= minClassElems {
		return minClassElems
	}
	q := 1 << (bits.Len(uint(n-1)) - 3)
	return (n + q - 1) &^ (q - 1)
}

// capClass floors a backing-array capacity to the largest class it can
// serve, so a tensor re-entering the pool is filed where every future
// GetTensor of that class fits inside it. Pool-allocated tensors have
// exactly-class capacities, so the floor is the identity for them; a
// foreign tensor below the smallest class reports 0 and is not pooled.
func capClass(c int) int {
	if c < minClassElems {
		return 0
	}
	q := 1 << (bits.Len(uint(c)) - 3)
	return c &^ (q - 1)
}

// tensorCap is the element capacity of t's backing array.
func tensorCap(t *tensor.Tensor) int {
	switch t.DT {
	case tensor.F16:
		return cap(t.F16s)
	case tensor.I16:
		return cap(t.I16s)
	default:
		return cap(t.F32s)
	}
}

// resliceTensor shapes t to exactly shape/elems within its capacity: the
// shape header is rewritten in place — into t.Shape's own backing array
// whenever its capacity covers the rank, so a reshape allocates nothing —
// and the element slice resliced, never copied. t never aliases shape.
func resliceTensor(t *tensor.Tensor, shape tensor.Shape, elems int) {
	if !t.Shape.Equal(shape) {
		t.Shape = append(t.Shape[:0], shape...)
	}
	switch t.DT {
	case tensor.F16:
		t.F16s = t.F16s[:elems]
	case tensor.I16:
		t.I16s = t.I16s[:elems]
	default:
		t.F32s = t.F32s[:elems]
	}
}

// maxPooledPerClass bounds each class's freelist. The pipeline's steady
// state holds at most Prefetch samples plus a few assembled batches in
// flight, so the cap never binds in normal operation; it only stops a
// misbehaving caller from growing the pool without bound.
const maxPooledPerClass = 1024

// SlabPool recycles the pipeline's per-sample buffers: the decoded sample
// tensors the decode stage writes into, and the Batch structs (with their
// backing slices) that Iterator.Next assembles. It is the allocator the
// hotalloc analyzer recognizes — hot-path stages must draw sample-sized
// memory from here rather than the heap, and every Get must be balanced by
// a Put on all paths (the poolleak analyzer's must-release rule), either
// directly or by handing the buffer downstream.
//
// Ownership protocol: the decode stage Gets a tensor and hands it to
// Iterator.Next inside its decodedSample (ownership moves with the sample);
// Iterator.Next hands it to the consumer inside a Batch; Batch.Release
// returns the batch's sample tensors — never its labels, which the Dataset
// owns — and the Batch itself. A consumer that retains tensors simply skips
// Release and the pool refills from the heap, so recycling is strictly
// opt-in and never aliases live data.
//
// A SlabPool is safe for concurrent use by the stage worker pools. Reused
// tensors have unspecified contents: decode covers every element, which is
// why the pool can skip zeroing.
type SlabPool struct {
	mu      sync.Mutex
	tensors map[slabClass][]*tensor.Tensor
	batches []*Batch
	padded  []*PaddedBatch

	gets, hits int64
}

// NewSlabPool returns an empty pool.
func NewSlabPool() *SlabPool {
	return &SlabPool{tensors: make(map[slabClass][]*tensor.Tensor)}
}

// GetTensor returns a tensor of the given dtype and shape with unspecified
// contents, reusing a recycled slab whose capacity class covers the shape
// when one is free. The returned tensor's element slice always has capacity
// of at least the class bound — at least the requested element count — an
// invariant the fragmentation tests assert. Its Shape is a copy of shape,
// never an alias of it.
//
// A pooled tensor's Shape is rewritten in place on reuse: a reshape copies
// the new dims into the Shape's existing backing array. So the Shape of a
// tensor handed to PutTensor belongs to the pool as much as its elements
// do — whoever needs a sample's shape past Release keeps a Clone (as the
// data service's learned sample records do), and a tensor whose Shape
// slice is shared with another live tensor must not be put.
func (p *SlabPool) GetTensor(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	elems := shape.Elems()
	class := slabClass{dt: dt, elems: classElems(elems)}
	p.mu.Lock()
	p.gets++
	free := p.tensors[class]
	for n := len(free); n > 0; n = len(free) {
		t := free[n-1]
		free[n-1] = nil
		free = free[:n-1]
		p.tensors[class] = free
		if tensorCap(t) < elems {
			continue // never hand out a slab the shape does not fit
		}
		p.hits++
		p.mu.Unlock()
		resliceTensor(t, shape, elems)
		return t
	}
	p.mu.Unlock()
	t := tensor.New(dt, class.elems)
	resliceTensor(t, shape, elems)
	return t
}

// PutTensor returns t to the freelist of the largest class its capacity can
// serve. Nil tensors are ignored, as are foreign tensors too small for any
// class. The caller must not use t afterwards.
func (p *SlabPool) PutTensor(t *tensor.Tensor) {
	p.mu.Lock()
	p.putTensorLocked(t)
	p.mu.Unlock()
}

// putTensorLocked is PutTensor for a caller that holds p.mu, so a batch
// release files all its tensors under one lock.
func (p *SlabPool) putTensorLocked(t *tensor.Tensor) {
	if t == nil {
		return
	}
	class := slabClass{dt: t.DT, elems: capClass(tensorCap(t))}
	if class.elems == 0 {
		return
	}
	if len(p.tensors[class]) < maxPooledPerClass {
		p.tensors[class] = append(p.tensors[class], t)
	}
}

// GetBatch returns a reset Batch whose slices have at least the given
// capacity available, reusing a released one when possible. It is the
// exported face of the pool's batch freelist for consumers outside the
// loader (the data service assembles tenant batches from a shared pool);
// the returned batch's Release hands it back exactly like a loader batch.
func (p *SlabPool) GetBatch(capacity int) *Batch { return p.getBatch(capacity) }

// getBatch returns a reset Batch whose slices have at least the given
// capacity available, reusing a released one when possible.
func (p *SlabPool) getBatch(capacity int) *Batch {
	p.mu.Lock()
	if n := len(p.batches); n > 0 {
		b := p.batches[n-1]
		p.batches[n-1] = nil
		p.batches = p.batches[:n-1]
		p.mu.Unlock()
		b.pool = p
		b.released = false
		return b
	}
	p.mu.Unlock()
	return &Batch{
		Data:    make([]*tensor.Tensor, 0, capacity),
		Labels:  make([]*tensor.Tensor, 0, capacity),
		Indices: make([]int, 0, capacity),
		pool:    p,
	}
}

// putBatch files b's sample tensors and shelves b with its slices cleared
// (keeping their capacity), all under one lock.
func (p *SlabPool) putBatch(b *Batch) {
	clear(b.Labels)
	b.Labels = b.Labels[:0]
	b.Indices = b.Indices[:0]
	p.mu.Lock()
	for _, t := range b.Data {
		p.putTensorLocked(t)
	}
	clear(b.Data)
	b.Data = b.Data[:0]
	if len(p.batches) < maxPooledPerClass {
		p.batches = append(p.batches, b)
	}
	p.mu.Unlock()
}

// getPadded returns a released PaddedBatch for reuse, or a new one. Its
// slices keep their capacity, so a steady padded drain allocates nothing.
func (p *SlabPool) getPadded() *PaddedBatch {
	p.mu.Lock()
	if n := len(p.padded); n > 0 {
		pb := p.padded[n-1]
		p.padded[n-1] = nil
		p.padded = p.padded[:n-1]
		p.mu.Unlock()
		pb.released = false
		return pb
	}
	p.mu.Unlock()
	return &PaddedBatch{pool: p}
}

// putPadded files pb's two tensors and shelves pb, all under one lock.
// Data and Mask keep pointing at the filed tensors until the next Padded
// overwrites them; the pool owns both.
func (p *SlabPool) putPadded(pb *PaddedBatch) {
	clear(pb.Labels)
	p.mu.Lock()
	p.putTensorLocked(pb.Data)
	p.putTensorLocked(pb.Mask)
	if len(p.padded) < maxPooledPerClass {
		p.padded = append(p.padded, pb)
	}
	p.mu.Unlock()
}

// PoolStats is a point-in-time snapshot of a SlabPool's reuse accounting.
type PoolStats struct {
	// Gets counts GetTensor calls; Hits counts the ones served from the
	// freelist rather than the heap.
	Gets, Hits int64
	// FreeTensors and FreeBatches are current freelist occupancy.
	FreeTensors, FreeBatches int
}

// Stats returns a snapshot of the pool's accounting.
func (p *SlabPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{Gets: p.gets, Hits: p.hits, FreeBatches: len(p.batches)}
	for _, free := range p.tensors {
		s.FreeTensors += len(free)
	}
	return s
}
