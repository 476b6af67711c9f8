package pipeline

import (
	"errors"
	"math"
	"strings"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fault"
	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

// raggedFormat decodes blobs into [2, L] samples whose trailing axis varies
// per sample: L = blob[0] % 5, so every fifth sample is empty. Element
// [c, t] holds v*100 + c*L + t, making both padding errors and row-order
// errors visible in the assembled batch.
type raggedFormat struct{}

func (raggedFormat) Name() string { return "ragged-test" }
func (raggedFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	if len(blob) == 0 {
		return nil, errors.New("empty blob")
	}
	return &raggedDecoder{v: blob[0], l: int(blob[0]) % 5}, nil
}

type raggedDecoder struct {
	v byte
	l int
}

func (d *raggedDecoder) OutputShape() tensor.Shape { return tensor.Shape{2, d.l} }
func (d *raggedDecoder) OutputDType() tensor.DType { return tensor.F32 }
func (d *raggedDecoder) NumChunks() int            { return 2 }
func (d *raggedDecoder) Workload() codec.Workload  { return codec.Workload{Chunks: 2} }
func (d *raggedDecoder) DecodeChunk(c int, dst *tensor.Tensor) error {
	for i := 0; i < d.l; i++ {
		dst.F32s[c*d.l+i] = float32(d.v)*100 + float32(c*d.l+i)
	}
	return nil
}

func raggedLen(index int) int { return index % 5 }

func raggedSample(p *SlabPool, v byte, l int) *tensor.Tensor {
	var t *tensor.Tensor
	if p != nil {
		t = p.GetTensor(tensor.F32, tensor.Shape{2, l})
	} else {
		t = tensor.New(tensor.F32, 2, l)
	}
	for i := range t.F32s {
		t.F32s[i] = float32(v)*100 + float32(i)
	}
	return t
}

func TestPaddedBatchAssembly(t *testing.T) {
	p := NewSlabPool()
	b := p.getBatch(3)
	for i, l := range []int{3, 0, 5} {
		b.Data = append(b.Data, raggedSample(p, byte(i), l))
		lb := tensor.New(tensor.F32, 1)
		lb.F32s[0] = float32(i)
		b.Labels = append(b.Labels, lb)
		b.Indices = append(b.Indices, i)
	}
	pb, err := b.Padded()
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Data.Shape.Equal(tensor.Shape{3, 2, 5}) || pb.Data.DT != tensor.F32 {
		t.Fatalf("padded data shape = %v %v, want F32 [3 2 5]", pb.Data.DT, pb.Data.Shape)
	}
	if !pb.Mask.Shape.Equal(tensor.Shape{3, 5}) {
		t.Fatalf("mask shape = %v, want [3 5]", pb.Mask.Shape)
	}
	if want := []int{3, 0, 5}; !equalInts(pb.Lengths, want) {
		t.Fatalf("lengths = %v, want %v", pb.Lengths, want)
	}
	if pb.Size() != 3 || len(pb.Labels) != 3 || !equalInts(pb.Indices, []int{0, 1, 2}) {
		t.Fatal("padded batch lost its labels or indices")
	}
	for i, l := range pb.Lengths {
		for c := 0; c < 2; c++ {
			for tt := 0; tt < 5; tt++ {
				got := pb.Data.F32s[(i*2+c)*5+tt]
				var want float32
				if tt < l {
					want = float32(i)*100 + float32(c*l+tt)
				}
				if got != want {
					t.Fatalf("data[%d,%d,%d] = %g, want %g", i, c, tt, got, want)
				}
			}
		}
		for tt := 0; tt < 5; tt++ {
			want := float32(0)
			if tt < l {
				want = 1
			}
			if pb.Mask.F32s[i*5+tt] != want {
				t.Fatalf("mask[%d,%d] = %g, want %g", i, tt, pb.Mask.F32s[i*5+tt], want)
			}
		}
	}
	// Release recycles the padded tensors but never the labels. Data (30
	// elems) and Mask (15 elems) share the smallest capacity class, so two
	// gets must hand both back, in whichever order the freelist serves.
	pb.Release()
	pb.Release() // idempotent
	got := map[*tensor.Tensor]bool{
		p.GetTensor(tensor.F32, tensor.Shape{3, 2, 5}): true,
		p.GetTensor(tensor.F32, tensor.Shape{3, 5}):    true,
	}
	if !got[pb.Data] || !got[pb.Mask] {
		t.Error("released padded tensors were not recycled")
	}
}

// TestPaddedZeroFillsRecycledSlabs pins the explicit-zero contract: padding
// assembled into a dirty recycled slab must not leak the slab's previous
// contents into the padding region.
func TestPaddedZeroFillsRecycledSlabs(t *testing.T) {
	p := NewSlabPool()
	dirty := p.GetTensor(tensor.F32, tensor.Shape{64})
	for i := range dirty.F32s {
		dirty.F32s[i] = math.MaxFloat32
	}
	p.PutTensor(dirty)

	b := p.getBatch(2)
	b.Data = append(b.Data, raggedSample(p, 1, 3), raggedSample(p, 2, 1))
	b.Labels = append(b.Labels, nil, nil)
	b.Indices = append(b.Indices, 0, 1)
	pb, err := b.Padded()
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range pb.Lengths {
		for c := 0; c < 2; c++ {
			for tt := l; tt < 3; tt++ {
				if got := pb.Data.F32s[(i*2+c)*3+tt]; got != 0 {
					t.Fatalf("padding [%d,%d,%d] = %g from a dirty slab", i, c, tt, got)
				}
			}
		}
	}
}

// TestPaddedWidensLikeToF32 pins the row-by-row widening of F16 and I16
// samples straight into Data: every element carries the bits ToF32 gives it,
// FP16 NaN payloads, subnormals and infinities included, and the padding is
// zero.
func TestPaddedWidensLikeToF32(t *testing.T) {
	specials := []fp16.Bits{0x7C01, 0xFE01, 0x7E00, 0x0000, 0x8000, 0x0001, 0x83FF, 0x7C00, 0xFC00, 0x3C00, 0xC500, 0x7BFF}
	lengths := []int{5, 0, 12, 7}
	const rows, maxLen = 3, 12
	p := NewSlabPool()
	for _, dt := range []tensor.DType{tensor.F16, tensor.I16} {
		b := p.getBatch(len(lengths))
		for i, l := range lengths {
			x := p.GetTensor(dt, tensor.Shape{rows, l})
			for k := 0; k < x.Elems(); k++ {
				if dt == tensor.F16 {
					x.F16s[k] = specials[(i+k)%len(specials)]
				} else {
					x.I16s[k] = int16(k*1000 - 7000)
				}
			}
			b.Data = append(b.Data, x)
			b.Labels = append(b.Labels, nil)
			b.Indices = append(b.Indices, i)
		}
		pb, err := b.Padded()
		if err != nil {
			t.Fatal(err)
		}
		if !pb.Data.Shape.Equal(tensor.Shape{len(lengths), rows, maxLen}) {
			t.Fatalf("%v: padded shape %v", dt, pb.Data.Shape)
		}
		for i, x := range b.Data {
			wide, l := x.ToF32().F32s, lengths[i]
			for r := 0; r < rows; r++ {
				for tt := 0; tt < maxLen; tt++ {
					var want float32
					if tt < l {
						want = wide[r*l+tt]
					}
					got := pb.Data.F32s[(i*rows+r)*maxLen+tt]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%v sample %d [%d,%d] = %#x, want %#x", dt, i, r, tt, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
		pb.Release()
		b.Release()
	}
}

func TestPaddedRejectsIncompatibleSamples(t *testing.T) {
	newBatch := func(data ...*tensor.Tensor) *Batch { return &Batch{Data: data} }
	cases := map[string]*Batch{
		"empty":   newBatch(),
		"rank":    newBatch(tensor.New(tensor.F32, 2, 3), tensor.New(tensor.F32, 3)),
		"rank0":   newBatch(tensor.New(tensor.F32)),
		"leading": newBatch(tensor.New(tensor.F32, 2, 3), tensor.New(tensor.F32, 3, 3)),
		"dtype":   newBatch(tensor.New(tensor.F32, 2, 3), tensor.New(tensor.F16, 2, 3)),
	}
	for name, b := range cases {
		if _, err := b.Padded(); err == nil {
			t.Errorf("%s batch padded without error", name)
		} else if !strings.HasPrefix(err.Error(), "pipeline:") {
			t.Errorf("%s error %q lacks package prefix", name, err)
		}
	}
}

// TestPaddedEqualLengthsMatchStack pins the degenerate case: when every
// sample has the same length the padded tensor is the plain stacked tensor,
// bit for bit, and the mask is all ones. (train.StackData cannot be imported
// here — train depends on pipeline — so the stack is built by hand with the
// same copy layout; the cross-package identity is asserted in train's own
// tests.)
func TestPaddedEqualLengthsMatchStack(t *testing.T) {
	b := &Batch{}
	for i := 0; i < 3; i++ {
		b.Data = append(b.Data, raggedSample(nil, byte(i), 4))
		b.Indices = append(b.Indices, i)
	}
	pb, err := b.Padded()
	if err != nil {
		t.Fatal(err)
	}
	stride := 8
	for i, s := range b.Data {
		for k, v := range s.F32s {
			got := pb.Data.F32s[i*stride+k]
			if math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("stacked elem [%d,%d] = %g, want bit-identical %g", i, k, got, v)
			}
		}
	}
	for _, m := range pb.Mask.F32s {
		if m != 1 {
			t.Fatal("equal-length batch has padding in its mask")
		}
	}
}

// drainPadded pulls every padded batch of the epoch, returning the delivered
// indices, lengths, and a digest over (indices, lengths, data bits, mask
// bits) in delivery order — the equality witness for determinism runs.
func drainPadded(t *testing.T, it *Iterator) (idx []int, digest uint64) {
	t.Helper()
	digest = 0xcbf29ce484222325
	fold := func(v uint64) {
		digest = (digest ^ v) * 0x100000001b3
	}
	for {
		pb, err := it.NextPadded()
		if err != nil {
			t.Fatal(err)
		}
		if pb == nil {
			return idx, digest
		}
		for k, i := range pb.Indices {
			idx = append(idx, i)
			fold(uint64(i))
			fold(uint64(pb.Lengths[k]))
		}
		for _, f := range pb.Data.F32s {
			fold(uint64(math.Float32bits(f)))
		}
		for _, f := range pb.Mask.F32s {
			fold(uint64(math.Float32bits(f)))
		}
		pb.Release()
	}
}

func TestNextPaddedEndToEnd(t *testing.T) {
	const n = 13
	l, err := New(testDataset(n), Config{Format: raggedFormat{}, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	seen := 0
	for {
		pb, err := it.NextPadded()
		if err != nil {
			t.Fatal(err)
		}
		if pb == nil {
			break
		}
		maxLen := 0
		for k, i := range pb.Indices {
			if pb.Lengths[k] != raggedLen(i) {
				t.Fatalf("sample %d length %d, want %d", i, pb.Lengths[k], raggedLen(i))
			}
			if maxLen < pb.Lengths[k] {
				maxLen = pb.Lengths[k]
			}
			if pb.Labels[k].F32s[0] != float32(i) {
				t.Fatalf("sample %d label mismatch", i)
			}
		}
		wantShape := tensor.Shape{len(pb.Indices), 2, maxLen}
		if !pb.Data.Shape.Equal(wantShape) {
			t.Fatalf("batch shape %v, want %v (pad to max-in-batch)", pb.Data.Shape, wantShape)
		}
		for k, i := range pb.Indices {
			li := pb.Lengths[k]
			for c := 0; c < 2; c++ {
				for tt := 0; tt < maxLen; tt++ {
					got := pb.Data.F32s[(k*2+c)*maxLen+tt]
					var want float32
					if tt < li {
						want = float32(i)*100 + float32(c*li+tt)
					}
					if got != want {
						t.Fatalf("sample %d elem [%d,%d] = %g, want %g", i, c, tt, got, want)
					}
				}
			}
		}
		seen += pb.Size()
		pb.Release()
	}
	if seen != n {
		t.Fatalf("padded epoch delivered %d samples, want %d", seen, n)
	}
	if st := l.Pool().Stats(); st.Hits == 0 {
		t.Error("padded epoch never reused a slab: NextPadded is not recycling")
	}
}

// TestNextPaddedDeterministicUnderRetry is the ragged half of the resilience
// determinism lock: a shuffled epoch whose reads fail transiently and retry
// must produce bit-identical padded batches and masks to the same epoch on a
// healthy dataset.
func TestNextPaddedDeterministicUnderRetry(t *testing.T) {
	const n = 24
	clean, err := New(testDataset(n), Config{Format: raggedFormat{}, Batch: 4, Shuffle: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantDigest := drainPadded(t, clean.Epoch(1))

	ds := flaky(n)
	ds.blobFails[wantIdx[0]] = 2
	ds.blobFails[wantIdx[7]] = 1
	ds.labelFails[wantIdx[3]] = 2
	l, err := New(ds, Config{
		Format: raggedFormat{}, Batch: 4, Shuffle: true, Seed: 11,
		Resilience: Resilience{MaxRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(1)
	gotIdx, gotDigest := drainPadded(t, it)
	if !equalInts(gotIdx, wantIdx) {
		t.Fatalf("retried epoch reordered delivery:\n got %v\nwant %v", gotIdx, wantIdx)
	}
	if gotDigest != wantDigest {
		t.Fatal("retried epoch's padded batches are not bit-identical to the clean run")
	}
	if st := it.Stats(); st.Retried != 5 {
		t.Errorf("Stats.Retried = %d, want 5", st.Retried)
	}
}

// TestNextPaddedDeterministicUnderStallRestart locks padding determinism
// across the supervisor's stall re-admission path: abandoned generations are
// re-decoded fresh, so the padded output matches a clean run bit for bit.
func TestNextPaddedDeterministicUnderStallRestart(t *testing.T) {
	const n = 32
	clean, err := New(testDataset(n), Config{Format: raggedFormat{}, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantDigest := drainPadded(t, clean.Epoch(0))

	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 9, Stall: 0.1})
	defer in.Release()
	l, err := New(in, Config{
		Format: raggedFormat{}, Batch: 4,
		Supervise: SupervisorConfig{MaxRestarts: 64, StallDeadline: 0.03, StallRestart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	gotIdx, gotDigest := drainPadded(t, it)
	if !equalInts(gotIdx, wantIdx) || gotDigest != wantDigest {
		t.Fatal("stall re-admission changed the padded epoch output")
	}
	if len(in.Log()) == 0 {
		t.Fatal("injector logged no stalls: the test exercised nothing")
	}
}

// TestNextPaddedDeterministicUnderStallRestartRuns is the run-length twin
// of the test above: at Batch 32 the DAG moves runs of eight, so a worker
// wedged on one sample also holds its run-mates — processed ones waiting to
// be emitted and unprocessed ones waiting their turn. The watchdog must
// write the worker off once and re-admit every one of them.
func TestNextPaddedDeterministicUnderStallRestartRuns(t *testing.T) {
	const n = 256
	stages := StageConfig{ReadWorkers: 2, DecodeWorkers: 4}
	clean, err := New(testDataset(n), Config{Format: raggedFormat{}, Batch: 32, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantDigest := drainPadded(t, clean.Epoch(0))

	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 9, Stall: 0.02})
	defer in.Release()
	l, err := New(in, Config{
		Format: raggedFormat{}, Batch: 32, Stages: stages,
		Supervise: SupervisorConfig{MaxRestarts: 64, StallDeadline: 0.03, StallRestart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := l.runLen(); r != 8 {
		t.Fatalf("runLen = %d, want 8: the test would not exercise runs", r)
	}
	it := l.Epoch(0)
	gotIdx, gotDigest := drainPadded(t, it)
	if !equalInts(gotIdx, wantIdx) || gotDigest != wantDigest {
		t.Fatal("stall re-admission changed the padded epoch output")
	}
	if len(in.Log()) == 0 {
		t.Fatal("injector logged no stalls: the test exercised nothing")
	}
	if st := it.Stats(); st.Stalls != len(in.Log()) {
		t.Fatalf("Stats.Stalls = %d, injector wedged %d workers", st.Stalls, len(in.Log()))
	}
}

// TestCachedRaggedEpochAccounting runs a cached loader over variable-size
// blobs — every sample a different resident size — and proves the cache's
// byte accounting is exact at every point the epoch settles, including after
// evictions forced by a budget several samples small.
func TestCachedRaggedEpochAccounting(t *testing.T) {
	const n = 20
	ds := &FuncDataset{
		N: n,
		BlobFn: func(i int) ([]byte, error) {
			blob := make([]byte, 1+8*(i%7))
			blob[0] = byte(i)
			return blob, nil
		},
		LabelFn: func(i int) (*tensor.Tensor, error) {
			lb := tensor.New(tensor.F32, 1)
			lb.F32s[0] = float32(i)
			return lb, nil
		},
	}
	l, err := New(ds, Config{
		Format: raggedFormat{}, Batch: 4,
		Cache: CacheConfig{HostMemBytes: 200, NVMeBytes: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	for epoch := 0; epoch < 3; epoch++ {
		_, d := drainPadded(t, l.Epoch(epoch))
		digests = append(digests, d)
		if err := l.Cache().VerifyAccounting(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatal("cached epochs diverged from each other on ragged samples")
	}
}
