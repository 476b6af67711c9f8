package codec

import (
	"strings"
	"testing"

	"scipp/internal/tensor"
)

// bigFake wraps fakeDecoder with a decoded-output size large enough to
// cross the parallelDecodeMinBytes threshold, so DecodeParallelInto takes
// its chunk-cursor path instead of the serial fallback.
type bigFake struct {
	fakeDecoder
	bytesOut int
}

func (f *bigFake) Workload() Workload {
	return Workload{Chunks: f.n, BytesOut: f.bytesOut}
}

// recycleFake additionally implements Recycler.
type recycleFake struct {
	fakeDecoder
	recycled bool
}

func (f *recycleFake) Recycle() { f.recycled = true }

func TestDecodeIntoReusesDst(t *testing.T) {
	d := &fakeDecoder{n: 8, failAt: -1, dtype: tensor.F32}
	dst := tensor.New(tensor.F32, 8)
	// Dirty the destination: DecodeInto must overwrite every element.
	for i := range dst.F32s {
		dst.F32s[i] = -1
	}
	if err := DecodeInto(d, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if dst.F32s[i] != float32(i) {
			t.Fatalf("element %d = %v, want %d", i, dst.F32s[i], i)
		}
	}
}

func TestDecodeIntoChunkError(t *testing.T) {
	d := &fakeDecoder{n: 8, failAt: 3, dtype: tensor.F32}
	dst := tensor.New(tensor.F32, 8)
	err := DecodeInto(d, dst)
	if err == nil || !strings.Contains(err.Error(), "chunk 3") {
		t.Fatalf("err = %v, want chunk 3 failure", err)
	}
}

func TestDecodeParallelIntoLargeSample(t *testing.T) {
	n := 32
	d := &bigFake{
		fakeDecoder: fakeDecoder{n: n, failAt: -1, dtype: tensor.F32, counter: make(chan int, n)},
		bytesOut:    parallelDecodeMinBytes,
	}
	dst := tensor.New(tensor.F32, n)
	if err := DecodeParallelInto(d, dst, 5); err != nil {
		t.Fatal(err)
	}
	close(d.counter)
	seen := make(map[int]int)
	for c := range d.counter {
		seen[c]++
	}
	if len(seen) != n {
		t.Errorf("decoded %d distinct chunks, want %d", len(seen), n)
	}
	for c, k := range seen {
		if k != 1 {
			t.Errorf("chunk %d decoded %d times", c, k)
		}
	}
	for i := 0; i < n; i++ {
		if dst.F32s[i] != float32(i) {
			t.Fatalf("chunk %d missing from output", i)
		}
	}
}

func TestDecodeParallelIntoWorkerClamp(t *testing.T) {
	// More workers than chunks: the clamp must not spawn idle goroutines or
	// decode any chunk twice.
	n := 4
	d := &bigFake{
		fakeDecoder: fakeDecoder{n: n, failAt: -1, dtype: tensor.F32, counter: make(chan int, n)},
		bytesOut:    parallelDecodeMinBytes,
	}
	dst := tensor.New(tensor.F32, n)
	if err := DecodeParallelInto(d, dst, 64); err != nil {
		t.Fatal(err)
	}
	close(d.counter)
	count := 0
	for range d.counter {
		count++
	}
	if count != n {
		t.Errorf("decoded %d chunks, want %d", count, n)
	}
}

func TestDecodeParallelIntoErrorPropagates(t *testing.T) {
	n := 16
	d := &bigFake{
		fakeDecoder: fakeDecoder{n: n, failAt: 7, dtype: tensor.F32},
		bytesOut:    parallelDecodeMinBytes,
	}
	dst := tensor.New(tensor.F32, n)
	err := DecodeParallelInto(d, dst, 4)
	if err == nil || !strings.Contains(err.Error(), "chunk 7") {
		t.Fatalf("err = %v, want chunk 7 failure", err)
	}
}

// TestDecodeParallelIntoReuse: the fan-out state is pooled, so an error
// from one call must not leak into the next, and a steady loop must not
// allocate per call.
func TestDecodeParallelIntoReuse(t *testing.T) {
	n := 16
	bad := &bigFake{fakeDecoder: fakeDecoder{n: n, failAt: 7, dtype: tensor.F32}, bytesOut: parallelDecodeMinBytes}
	good := &bigFake{fakeDecoder: fakeDecoder{n: n, failAt: -1, dtype: tensor.F32}, bytesOut: parallelDecodeMinBytes}
	dst := tensor.New(tensor.F32, n)
	if err := DecodeParallelInto(bad, dst, 2); err == nil {
		t.Fatal("failing decoder returned no error")
	}
	if err := DecodeParallelInto(good, dst, 2); err != nil {
		t.Fatalf("error carried over from the previous call: %v", err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := DecodeParallelInto(good, dst, 2); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Errorf("DecodeParallelInto allocates %.1f objects per call, want none", a)
	}
}

func TestDecodeParallelIntoSmallSampleStaysSerial(t *testing.T) {
	// Below the size threshold the decode must still be complete and
	// correct (it runs on the calling goroutine).
	n := 8
	d := &fakeDecoder{n: n, failAt: -1, dtype: tensor.F32}
	dst := tensor.New(tensor.F32, n)
	if err := DecodeParallelInto(d, dst, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if dst.F32s[i] != float32(i) {
			t.Fatalf("element %d not decoded", i)
		}
	}
}

func TestRecycle(t *testing.T) {
	r := &recycleFake{fakeDecoder: fakeDecoder{n: 1, failAt: -1, dtype: tensor.F32}}
	Recycle(r)
	if !r.recycled {
		t.Error("Recycle did not invoke the decoder's Recycler")
	}
	// Non-Recyclers are silently ignored.
	Recycle(&fakeDecoder{n: 1, failAt: -1, dtype: tensor.F32})
}
