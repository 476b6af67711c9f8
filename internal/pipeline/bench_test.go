package pipeline

import (
	"fmt"
	"testing"

	"scipp/internal/codec/seriesfmt"
	"scipp/internal/gpusim"
	"scipp/internal/obs"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

// Benchmarks over the staged pipeline. One iteration drains one full epoch
// (benchSamples samples), so ns/op is the end-to-end epoch latency of the
// stage DAG and samples/sec its steady throughput. These are framework-
// overhead microbenchmarks (a 2-byte test format); benchmark/ measures the
// real codecs end to end. The CPU/GPU pair uses the same workload shape as
// the pre-DAG loader benchmarks, so numbers stay comparable across the
// refactor.
const (
	benchSamples  = 256
	benchBatch    = 8
	benchPrefetch = 16
)

func benchLoader(b *testing.B, cfg Config) *Loader {
	b.Helper()
	cfg.Format = countFormat{}
	cfg.Batch = benchBatch
	cfg.Prefetch = benchPrefetch
	l, err := New(testDataset(benchSamples), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func drainEpochs(b *testing.B, l *Loader) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := l.Epoch(i).Drain()
		if err != nil {
			b.Fatal(err)
		}
		if n != benchSamples {
			b.Fatalf("epoch delivered %d samples, want %d", n, benchSamples)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkPipelineCPU(b *testing.B) {
	drainEpochs(b, benchLoader(b, Config{}))
}

func BenchmarkPipelineGPU(b *testing.B) {
	drainEpochs(b, benchLoader(b, Config{
		Plugin: GPUPlugin,
		Device: gpusim.New(platform.Summit().GPU),
	}))
}

// syntheticReadDataset imitates a dataset whose Blob calls cost real work
// (checksumming a 4 KiB buffer per read), so the cached/uncached pair below
// measures what the sample cache actually buys on later epochs.
func syntheticReadDataset(n int) *FuncDataset {
	labels := make([]*tensor.Tensor, n)
	for i := range labels {
		lb := tensor.New(tensor.F32, 1)
		lb.F32s[0] = float32(i)
		labels[i] = lb
	}
	return &FuncDataset{
		N: n,
		BlobFn: func(i int) ([]byte, error) {
			buf := make([]byte, 4096)
			acc := byte(i)
			for k := range buf {
				acc = acc*31 + byte(k)
				buf[k] = acc
			}
			return []byte{byte(i), buf[len(buf)-1]}, nil
		},
		LabelFn: func(i int) (*tensor.Tensor, error) { return labels[i], nil },
	}
}

func benchCacheEpochs(b *testing.B, cache CacheConfig) {
	l, err := New(syntheticReadDataset(benchSamples), Config{
		Format:   countFormat{},
		Batch:    benchBatch,
		Prefetch: benchPrefetch,
		Cache:    cache,
		Obs:      obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm epoch 0 outside the timed region: the benchmark measures the
	// steady state the residency model describes (epoch >= 1).
	if _, err := l.Epoch(0).Drain(); err != nil {
		b.Fatal(err)
	}
	drainEpochs(b, l)
}

func BenchmarkPipelineCachedEpoch(b *testing.B) {
	benchCacheEpochs(b, CacheConfig{HostMemBytes: 64 << 20})
}

func BenchmarkPipelineUncachedEpoch(b *testing.B) {
	benchCacheEpochs(b, CacheConfig{})
}

// cacheHitSizes are the resident payloads of the benchmark's cached
// workloads: a serialized 4x32^3 F16 tensor (the data service) and a
// cosmo-LUT blob (cosmoflow_gpu_cached).
var cacheHitSizes = []int{262 << 10, 645 << 10}

// hitCache returns a cache holding eight residents of size bytes each.
func hitCache(size int) (*SampleCache, int) {
	const keys = 8
	c := NewSampleCache(CacheConfig{HostMemBytes: keys * int64(size)})
	for i := 0; i < keys; i++ {
		blob := make([]byte, size)
		for k := range blob {
			blob[k] = byte(i + k)
		}
		c.Put(i, blob, nil)
	}
	return c, keys
}

// BenchmarkSampleCacheGetHit is one verified hit: the lock, the recency
// update and one checksum pass over the resident. Its bound is the
// checksum's single-core throughput.
func BenchmarkSampleCacheGetHit(b *testing.B) {
	for _, size := range cacheHitSizes {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			c, keys := hitCache(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok, _ := c.Get(i % keys); !ok {
					b.Fatal("resident missed")
				}
			}
		})
	}
}

// BenchmarkSampleCacheGetHitParallel is the same hits from every core at
// once. The checksum runs outside the cache mutex, so the target is
// per-op wall time of about half the serial GetHit on two cores (1/P on
// P); per-op wall equal to the serial number means hits serialize on the
// lock again.
func BenchmarkSampleCacheGetHitParallel(b *testing.B) {
	for _, size := range cacheHitSizes {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			c, keys := hitCache(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, _, ok, _ := c.Get(i % keys); !ok {
						b.Error("resident missed")
						return
					}
				}
			})
		})
	}
}

// BenchmarkSlabPoolFragmentation is the satellite measurement behind the
// capacity-class freelists: a ragged get/put stream cycling through many
// distinct element counts. Under exact-elems pooling every length was its
// own class and nearly every get missed to the heap; with round-up classes
// the stream recycles a handful of slabs, so allocs/op is the honest
// fragmentation signal.
func BenchmarkSlabPoolFragmentation(b *testing.B) {
	p := NewSlabPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elems := 1 + (i*37)%997 // 997 distinct lengths, a few classes
		t := p.GetTensor(tensor.F32, tensor.Shape{3, elems})
		t.F32s[0] = float32(i) // touch the slab so reuse is not optimized away
		p.PutTensor(t)
	}
	b.StopTimer()
	st := p.Stats()
	if b.N > 64 && st.Hits == 0 {
		b.Fatal("ragged stream never hit the freelist")
	}
	b.ReportMetric(float64(st.Hits)/float64(st.Gets), "hit-ratio")
}

// BenchmarkCacheSum is the integrity checksum alone, at the resident sizes
// of the benchmark workloads: a weather station series (24 B), a small
// ragged sample (384 B), a data-service resident (262 KB) and a cosmo-LUT
// blob (645 KB). Its bound is the CRC hardware's throughput.
func BenchmarkCacheSum(b *testing.B) {
	for _, size := range []int{24, 384, 262 << 10, 645 << 10} {
		name := fmt.Sprintf("%dB", size)
		if size >= 1<<10 {
			name = fmt.Sprintf("%dKB", size>>10)
		}
		b.Run(name, func(b *testing.B) {
			blob := make([]byte, size)
			for k := range blob {
				blob[k] = byte(k * 131)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cacheSum(blob, nil)
			}
		})
	}
}

// BenchmarkRaggedEpoch drains one epoch of a cached ragged loader through
// NextPadded per iteration: 2048 synthetic station series of up to 4×256
// FP32, Batch 32, shuffled. Decode is a bit copy, so this is the framework
// path — stage hops, slab pool, cache hits and pad assembly. The first
// iteration is the cold epoch that fills the cache.
func BenchmarkRaggedEpoch(b *testing.B) {
	const n = 2048
	cfg := synthetic.DefaultWeatherConfig()
	ds := &MemDataset{}
	for i := 0; i < n; i++ {
		s, err := synthetic.GenerateWeather(cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		ds.Blobs = append(ds.Blobs, synthetic.WeatherToRecord(s))
		ds.Labels = append(ds.Labels, s.Label())
	}
	l, err := New(ds, Config{
		Format: seriesfmt.Bounded(cfg.Channels, cfg.MaxLen), Batch: 32, Shuffle: true, Seed: 1,
		Cache: CacheConfig{HostMemBytes: 2 * int64(ds.EncodedBytes())},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := l.Epoch(i)
		got := 0
		for {
			pb, err := it.NextPadded()
			if err != nil {
				b.Fatal(err)
			}
			if pb == nil {
				break
			}
			got += pb.Size()
			pb.Release()
		}
		if got != n {
			b.Fatalf("epoch delivered %d samples, want %d", got, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkPadded assembles one padded batch per iteration from 32 pooled
// samples of shape [4, L], L spread over 0..256 — the pad assembly of
// NextPadded alone.
func BenchmarkPadded(b *testing.B) {
	pool := NewSlabPool()
	batch := pool.GetBatch(32)
	for i := 0; i < 32; i++ {
		x := pool.GetTensor(tensor.F32, tensor.Shape{4, (i * 97) % 257})
		for k := range x.F32s {
			x.F32s[k] = float32(k)
		}
		batch.Data = append(batch.Data, x)
		batch.Labels = append(batch.Labels, nil)
		batch.Indices = append(batch.Indices, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := batch.Padded()
		if err != nil {
			b.Fatal(err)
		}
		pb.Release()
	}
}
