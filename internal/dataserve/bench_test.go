package dataserve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
)

// Benchmarks over the multi-tenant data service. One iteration drains one
// full epoch for every tenant (benchTenants x benchSamples samples), so
// samples/s is the aggregate multi-tenant delivery rate. The Private twin
// runs the same jobs on per-job pipeline.Loaders with per-job caches — the
// deployment the shared service replaces — so the pair tracks the
// shared-vs-private throughput relationship alongside the decode-count
// ratio `cmd/sweep -suite serve` reports.
const (
	benchTenants = 3
	benchSamples = 256
	benchBatch   = 8
)

func BenchmarkDataserveSharedTenants(b *testing.B) {
	ds := buildDataset(benchSamples, testShape)
	svc := dataserve.New(dataserve.Config{})
	defer svc.Close()
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: rawF32Format{testShape},
		Cache:  pipeline.CacheConfig{HostMemBytes: 64 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]*dataserve.Tenant, benchTenants)
	for i := range tenants {
		tenants[i], err = svc.Attach(dataserve.TenantConfig{
			Name:     fmt.Sprintf("t%d", i),
			Dataset:  "shared",
			Batch:    benchBatch,
			Inflight: 16,
			Shuffle:  true,
			Seed:     uint64(i)*101 + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, tn := range tenants {
			wg.Add(1)
			go func(tn *dataserve.Tenant) {
				defer wg.Done()
				drainTenantEpoch(b, tn, i)
			}(tn)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTenants*benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func drainTenantEpoch(b *testing.B, tn *dataserve.Tenant, epoch int) {
	it := tn.Epoch(epoch)
	if it == nil {
		b.Error("nil epoch iterator")
		return
	}
	defer it.Close()
	n := 0
	for {
		batch, err := it.Next()
		if err != nil {
			b.Error(err)
			return
		}
		if batch == nil {
			break
		}
		n += batch.Size()
		batch.Release()
	}
	if n != benchSamples {
		b.Errorf("epoch delivered %d samples, want %d", n, benchSamples)
	}
}

// BenchmarkDataserveOverload{Queue,Shed} pit the two overload policies
// against each other on the same contended mix: one weight-8 foreground
// tenant and three weight-1 background floods, all draining concurrently.
// Queue lets every background request wait its full dispatch lag out;
// Shed arms DeadlineLag 4 on the floods so requests past their admission
// deadline are dropped in the shed pass instead of holding decode
// capacity. The committed pair tracks how much epoch latency shedding
// buys back under pressure; samples/s counts only delivered samples, so
// the shed variant's rate reflects the work actually done.
func benchmarkDataserveOverload(b *testing.B, floodDeadline int64) {
	const (
		fgWeight  = 8
		floods    = 3
		fgBatch   = benchBatch
		fgSamples = benchSamples
	)
	ds := buildDataset(benchSamples, testShape)
	svc := dataserve.New(dataserve.Config{})
	defer svc.Close()
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: rawF32Format{testShape},
		Cache:  pipeline.CacheConfig{HostMemBytes: 64 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	fg, err := svc.Attach(dataserve.TenantConfig{
		Name: "fg", Dataset: "shared", Batch: fgBatch, Weight: fgWeight,
		Inflight: 16, Shuffle: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tenants := []*dataserve.Tenant{fg}
	for i := 0; i < floods; i++ {
		tn, err := svc.Attach(dataserve.TenantConfig{
			Name: fmt.Sprintf("flood%d", i), Dataset: "shared", Batch: benchBatch,
			Weight: 1, Inflight: 32, Shuffle: true, Seed: uint64(i)*7 + 2,
			DeadlineLag: floodDeadline,
		})
		if err != nil {
			b.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, tn := range tenants {
			wg.Add(1)
			go func(tn *dataserve.Tenant) {
				defer wg.Done()
				it := tn.Epoch(i)
				if it == nil {
					b.Error("nil epoch iterator")
					return
				}
				defer it.Close()
				for {
					batch, err := it.Next()
					if err != nil {
						b.Error(err)
						return
					}
					if batch == nil {
						return
					}
					atomic.AddInt64(&delivered, int64(batch.Size()))
					batch.Release()
				}
			}(tn)
		}
		wg.Wait()
	}
	b.StopTimer()
	if fg.Stats().Shed != 0 {
		b.Errorf("foreground tenant shed %d requests", fg.Stats().Shed)
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkDataserveOverloadQueue(b *testing.B) { benchmarkDataserveOverload(b, 0) }

func BenchmarkDataserveOverloadShed(b *testing.B) { benchmarkDataserveOverload(b, 4) }

// BenchmarkDataservePrivateLoaders is the deployment baseline: the same
// three jobs, each on its own pipeline.Loader with a private cache.
func BenchmarkDataservePrivateLoaders(b *testing.B) {
	ds := buildDataset(benchSamples, testShape)
	loaders := make([]*pipeline.Loader, benchTenants)
	for i := range loaders {
		l, err := pipeline.New(ds, pipeline.Config{
			Format:  rawF32Format{testShape},
			Batch:   benchBatch,
			Shuffle: true,
			Seed:    uint64(i)*101 + 1,
			Cache:   pipeline.CacheConfig{HostMemBytes: 64 << 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		loaders[i] = l
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, l := range loaders {
			wg.Add(1)
			go func(l *pipeline.Loader) {
				defer wg.Done()
				n, err := l.Epoch(i).Drain()
				if err != nil {
					b.Error(err)
					return
				}
				if n != benchSamples {
					b.Errorf("epoch delivered %d samples, want %d", n, benchSamples)
				}
			}(l)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTenants*benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
