package dataserve

import (
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// hitDataset returns a shared dataset whose cache holds sample 0 as the
// benchmark's serve workloads do: a 4x32^3 F16 sample, 256 KiB of raw
// element bytes, with its record learned.
func hitDataset() *sharedDataset {
	src := tensor.New(tensor.F16, 4, 32, 32, 32)
	for i := range src.F16s {
		src.F16s[i] = fp16.Bits(i * 0x9E37)
	}
	sd := &sharedDataset{
		cache:   pipeline.NewSampleCache(pipeline.CacheConfig{HostMemBytes: 1 << 20}),
		pool:    pipeline.NewSlabPool(),
		learned: make([]sampleRecord, 1),
	}
	sd.learnLocked(0, src, nil)
	sd.cache.Put(0, append([]byte(nil), tensor.RawBytes(src)...), nil)
	return sd
}

// serveHit is one shared-cache hit's data path: the verified Get and the
// copy into a pooled tensor, which goes back to the pool.
func serveHit(tb testing.TB, sd *sharedDataset) {
	enc, _, ok, _ := sd.cache.Get(0)
	if !ok {
		tb.Fatal("resident missed")
	}
	dst, err := sd.materialize(&sd.learned[0], enc)
	if err != nil {
		tb.Fatal(err)
	}
	sd.pool.PutTensor(dst)
}

// BenchmarkServeHit is a data-service hit without the workers: one
// checksum pass plus one memmove of the resident into a pooled tensor. Its
// bound is a memcpy of the payload plus the CRC's throughput.
func BenchmarkServeHit(b *testing.B) {
	sd := hitDataset()
	b.SetBytes(int64(sd.learned[0].data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHit(b, sd)
	}
}

func TestServeHitAllocatesNothing(t *testing.T) {
	sd := hitDataset()
	serveHit(t, sd) // the pool's first draw allocates the slab
	if n := testing.AllocsPerRun(20, func() { serveHit(t, sd) }); n != 0 {
		t.Fatalf("a warm serve hit allocates %v times", n)
	}
}

func TestMaterializeRefusesMisfitResident(t *testing.T) {
	sd := hitDataset()
	enc, _, _, _ := sd.cache.Get(0)
	if _, err := sd.materialize(&sd.learned[0], enc[:len(enc)-2]); err == nil {
		t.Fatal("a resident two bytes short was materialized")
	}
}
