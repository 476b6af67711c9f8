package pipeline

import (
	"testing"

	"scipp/internal/tensor"
)

func TestSlabPoolTensorReuse(t *testing.T) {
	p := NewSlabPool()
	a := p.GetTensor(tensor.F32, tensor.Shape{2, 3})
	if got := p.Stats(); got.Gets != 1 || got.Hits != 0 {
		t.Fatalf("fresh get stats = %+v", got)
	}
	p.PutTensor(a)
	b := p.GetTensor(tensor.F32, tensor.Shape{2, 3})
	if b != a {
		t.Error("same-class get did not reuse the released tensor")
	}
	if got := p.Stats(); got.Hits != 1 {
		t.Errorf("hits = %d, want 1", got.Hits)
	}
}

func TestSlabPoolReshapesSameClass(t *testing.T) {
	p := NewSlabPool()
	a := p.GetTensor(tensor.F32, tensor.Shape{2, 3})
	p.PutTensor(a)
	// Same element count, different shape: the slab is reused with its
	// shape header patched.
	b := p.GetTensor(tensor.F32, tensor.Shape{6})
	if b != a {
		t.Fatal("equal-elems get did not reuse the released tensor")
	}
	if !b.Shape.Equal(tensor.Shape{6}) {
		t.Errorf("reused tensor shape = %v, want [6]", b.Shape)
	}
	if len(b.F32s) != 6 {
		t.Errorf("reused tensor has %d elems, want 6", len(b.F32s))
	}
}

// TestSlabPoolReshapeAllocatesNothing pins the in-place reshape: a pooled
// tensor cycling through shapes of one capacity class rewrites its Shape in
// its own backing array, so once every rank has been seen, Get/Put
// allocates nothing — and the tensor never aliases the caller's shape.
func TestSlabPoolReshapeAllocatesNothing(t *testing.T) {
	p := NewSlabPool()
	shapes := []tensor.Shape{{4, 60}, {244}, {2, 2, 61}, {4, 61}}
	for _, sh := range shapes { // warm: the slab and every rank's Shape array
		p.PutTensor(p.GetTensor(tensor.F32, sh))
	}
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		sh := shapes[k%len(shapes)]
		x := p.GetTensor(tensor.F32, sh)
		if !x.Shape.Equal(sh) || len(x.F32s) != sh.Elems() {
			t.Fatalf("GetTensor(%v) = shape %v, %d elems", sh, x.Shape, len(x.F32s))
		}
		p.PutTensor(x)
		k++
	}); n != 0 {
		t.Fatalf("alternating-shape Get/Put allocates %v times per cycle", n)
	}
	sh := tensor.Shape{4, 60}
	x := p.GetTensor(tensor.F32, sh)
	sh[1] = 61
	if !x.Shape.Equal(tensor.Shape{4, 60}) {
		t.Fatalf("tensor Shape aliases the caller's shape: %v", x.Shape)
	}
}

func TestSlabPoolClassesDoNotMix(t *testing.T) {
	p := NewSlabPool()
	a := p.GetTensor(tensor.F32, tensor.Shape{4})
	p.PutTensor(a)
	// Distinct elem counts within one capacity class share a freelist: the
	// ragged refactor's round-up classes keep pooling effective when nearly
	// every sample has its own length.
	b := p.GetTensor(tensor.F32, tensor.Shape{8})
	if b != a {
		t.Error("same-class get with a different elem count did not reuse the slab")
	}
	if len(b.F32s) != 8 || cap(b.F32s) < 8 {
		t.Errorf("reused slab len/cap = %d/%d, want 8/>=8", len(b.F32s), cap(b.F32s))
	}
	p.PutTensor(b)
	// Distinct capacity classes never mix, and neither do dtypes.
	if c := p.GetTensor(tensor.F32, tensor.Shape{4096}); c == a {
		t.Error("different capacity class reused the same slab")
	}
	if c := p.GetTensor(tensor.F16, tensor.Shape{4}); c == a {
		t.Error("different dtype reused the same slab")
	}
}

// TestSlabPoolCapacityClasses pins the class arithmetic: round-up targets,
// the floor on re-entry, and the identity between them for pool-allocated
// capacities.
func TestSlabPoolCapacityClasses(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 80}, {80, 80}, {81, 96},
		{127, 128}, {128, 128}, {129, 160}, {1000, 1024}, {1025, 1280},
	}
	for _, c := range cases {
		if got := classElems(c.n); got != c.class {
			t.Errorf("classElems(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	for _, c := range cases {
		if got := capClass(c.class); got != c.class {
			t.Errorf("capClass(%d) = %d, want identity for class values", c.class, got)
		}
	}
	if got := capClass(63); got != 0 {
		t.Errorf("capClass(63) = %d, want 0 (below the smallest class)", got)
	}
	if got := capClass(100); got != 96 {
		t.Errorf("capClass(100) = %d, want 96", got)
	}
}

// TestSlabPoolRaggedReuseKeepsCapacity is the satellite-2 invariant: across
// many distinct ragged element counts, every tensor GetTensor hands out —
// fresh or reused, before or after class rounding — has cap(Data) >= the
// requested elems, and the ragged stream still hits the freelist.
func TestSlabPoolRaggedReuseKeepsCapacity(t *testing.T) {
	p := NewSlabPool()
	for i := 0; i < 400; i++ {
		elems := 1 + (i*37)%997 // many distinct lengths across a few classes
		got := p.GetTensor(tensor.F32, tensor.Shape{3, elems})
		want := 3 * elems
		if len(got.F32s) != want {
			t.Fatalf("elems=%d: len = %d, want %d", elems, len(got.F32s), want)
		}
		if cap(got.F32s) < want {
			t.Fatalf("elems=%d: cap = %d < requested %d after class rounding", elems, cap(got.F32s), want)
		}
		if cap(got.F32s) < classElems(want) {
			t.Fatalf("elems=%d: cap = %d below class bound %d", elems, cap(got.F32s), classElems(want))
		}
		if !got.Shape.Equal(tensor.Shape{3, elems}) {
			t.Fatalf("elems=%d: shape = %v", elems, got.Shape)
		}
		p.PutTensor(got)
	}
	st := p.Stats()
	if st.Hits == 0 {
		t.Error("ragged get/put stream never hit the freelist: classes are not pooling")
	}
	// The freelist count stays far below the number of distinct lengths:
	// classes, not exact sizes, key the pool.
	if st.FreeTensors > 40 {
		t.Errorf("%d free tensors pooled: ragged lengths are fragmenting the pool", st.FreeTensors)
	}
}

// TestSlabPoolForeignTensors pins the re-entry rules for tensors the pool
// did not allocate: an exact-size foreign tensor files under the class its
// capacity can actually serve (never one that could over-reslice it), and
// tensors below the smallest class are not pooled at all.
func TestSlabPoolForeignTensors(t *testing.T) {
	p := NewSlabPool()
	foreign := tensor.New(tensor.F32, 100) // cap 100: serves class 96, not 112
	p.PutTensor(foreign)
	got := p.GetTensor(tensor.F32, tensor.Shape{90}) // class 96
	if got != foreign {
		t.Error("foreign tensor was not filed under its floored capacity class")
	}
	if cap(got.F32s) < 90 {
		t.Errorf("reused foreign cap = %d < 90", cap(got.F32s))
	}

	p2 := NewSlabPool()
	p2.PutTensor(tensor.New(tensor.F32, 8)) // below minClassElems: dropped
	if st := p2.Stats(); st.FreeTensors != 0 {
		t.Errorf("sub-class foreign tensor was pooled: %+v", st)
	}
}

func TestSlabPoolPutNil(t *testing.T) {
	p := NewSlabPool()
	p.PutTensor(nil) // must not panic
	if got := p.Stats(); got.FreeTensors != 0 {
		t.Errorf("nil put changed occupancy: %+v", got)
	}
}

func TestBatchReleaseRecyclesTensorsNotLabels(t *testing.T) {
	p := NewSlabPool()
	data := p.GetTensor(tensor.F32, tensor.Shape{4})
	label := tensor.New(tensor.F32, 1)
	b := p.getBatch(1)
	b.Data = append(b.Data, data)
	b.Labels = append(b.Labels, label)
	b.Indices = append(b.Indices, 7)
	b.Release()

	if got := p.Stats(); got.FreeTensors != 1 || got.FreeBatches != 1 {
		t.Fatalf("after release: %+v, want 1 free tensor and 1 free batch", got)
	}
	// The data tensor is recycled; the label must never be.
	if r := p.GetTensor(tensor.F32, tensor.Shape{4}); r != data {
		t.Error("released data tensor was not recycled")
	}
	if r := p.GetTensor(tensor.F32, tensor.Shape{1}); r == label {
		t.Error("label tensor leaked into the pool")
	}

	b2 := p.getBatch(1)
	if b2 != b {
		t.Error("released batch struct was not recycled")
	}
	if len(b2.Data) != 0 || len(b2.Labels) != 0 || len(b2.Indices) != 0 {
		t.Errorf("recycled batch not reset: %d/%d/%d entries",
			len(b2.Data), len(b2.Labels), len(b2.Indices))
	}
}

// TestPaddedReleaseRecyclesStruct checks that PaddedBatch.Release files its
// two tensors, drops its label references, and shelves the struct for the
// next Padded to hand out again.
func TestPaddedReleaseRecyclesStruct(t *testing.T) {
	p := NewSlabPool()
	label := tensor.New(tensor.F32, 1)
	b := p.getBatch(2)
	b.Data = append(b.Data, raggedSample(p, 1, 3), raggedSample(p, 2, 1))
	b.Labels = append(b.Labels, label, label)
	b.Indices = append(b.Indices, 0, 1)
	pb, err := b.Padded()
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	if got := p.Stats(); got.FreeTensors != 2 || got.FreeBatches != 0 {
		t.Fatalf("after padded release: %+v, want 2 free tensors and no free batch", got)
	}
	if pb.Labels[0] != nil || pb.Labels[1] != nil {
		t.Error("released padded batch still references its labels")
	}
	again, err := b.Padded()
	if err != nil {
		t.Fatal(err)
	}
	if again != pb || again.Labels[0] != label || !equalInts(again.Indices, []int{0, 1}) || !equalInts(again.Lengths, []int{3, 1}) {
		t.Error("the next Padded did not reuse and refill the released struct")
	}
}

func TestBatchReleaseIdempotentAndNilSafe(t *testing.T) {
	var nilBatch *Batch
	nilBatch.Release() // must not panic

	(&Batch{Data: []*tensor.Tensor{tensor.New(tensor.F32, 1)}}).Release() // poolless: no-op

	p := NewSlabPool()
	b := p.getBatch(1)
	b.Data = append(b.Data, p.GetTensor(tensor.F32, tensor.Shape{2}))
	b.Release()
	b.Release() // second release must not double-free
	if got := p.Stats(); got.FreeTensors != 1 || got.FreeBatches != 1 {
		t.Errorf("double release changed occupancy: %+v", got)
	}
}

// TestEpochReusesSlabsAcrossEpochs drives the real DAG for two epochs with
// the consumer releasing every batch, and checks both that the pool serves
// later decodes from its freelist and that recycled tensors still carry the
// right decoded contents.
func TestEpochReusesSlabsAcrossEpochs(t *testing.T) {
	ds := testDataset(12)
	l, err := New(ds, Config{Format: countFormat{}, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		it := l.Epoch(epoch)
		for {
			b, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for k, idx := range b.Indices {
				if b.Data[k].F32s[0] != float32(idx) {
					t.Fatalf("epoch %d sample %d decoded wrong content", epoch, idx)
				}
			}
			b.Release()
		}
	}
	st := l.Pool().Stats()
	if st.Gets != 24 {
		t.Errorf("pool gets = %d, want 24", st.Gets)
	}
	if st.Hits == 0 {
		t.Error("two released epochs never hit the pool freelist")
	}
}

// TestUnreleasedBatchesStayValid pins the opt-in contract: a consumer that
// never calls Release keeps every tensor it was handed, bit-exact, even
// after the loader has produced many more batches.
func TestUnreleasedBatchesStayValid(t *testing.T) {
	ds := testDataset(20)
	l, err := New(ds, Config{Format: countFormat{}, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	var kept []*Batch
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		kept = append(kept, b)
	}
	if len(kept) != 10 {
		t.Fatalf("got %d batches, want 10", len(kept))
	}
	for _, b := range kept {
		for k, idx := range b.Indices {
			if b.Data[k].F32s[0] != float32(idx) {
				t.Fatalf("retained sample %d was clobbered", idx)
			}
		}
	}
}
