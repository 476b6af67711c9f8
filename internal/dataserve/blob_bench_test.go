package dataserve

import (
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// benchTensor is the data service's cached payload in the benchmark's
// serve workloads: a 4x32^3 F16 sample, 262 KB serialized.
func benchTensor() *tensor.Tensor {
	t := tensor.New(tensor.F16, 4, 32, 32, 32)
	for i := range t.F16s {
		t.F16s[i] = fp16.Bits(i * 0x9E37)
	}
	return t
}

// BenchmarkMaterialize is a cache hit's copy out: header parse, pooled
// destination, word-wise payload decode. Its bound is a memcpy of the
// payload.
func BenchmarkMaterialize(b *testing.B) {
	enc := encodeTensor(benchTensor())
	sd := &sharedDataset{pool: pipeline.NewSlabPool()}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err := sd.materialize(enc)
		if err != nil {
			b.Fatal(err)
		}
		sd.pool.PutTensor(dst)
	}
}

// BenchmarkEncodeTensor is a miss's serialization into the exactly sized
// buffer the cache adopts as its resident.
func BenchmarkEncodeTensor(b *testing.B) {
	src := benchTensor()
	b.SetBytes(int64(encodedSize(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeTensor(src)
	}
}
