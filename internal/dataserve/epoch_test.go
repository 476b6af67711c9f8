package dataserve_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// warmSamples is a warm tenant epoch's length, as on the benchmark's
// serve_shared workload: 96 samples in batches of 4 with Inflight 8.
const warmSamples = 96

// warmTenant attaches one tenant to a service whose cache holds the whole
// dataset, and drains one epoch so every later request is a cache hit.
func warmTenant(tb testing.TB) *dataserve.Tenant {
	tb.Helper()
	svc := dataserve.New(dataserve.Config{Workers: 2})
	tb.Cleanup(svc.Close)
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: buildDataset(warmSamples, testShape),
		Format: rawF32Format{testShape},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		tb.Fatalf("Register: %v", err)
	}
	tn, err := svc.Attach(dataserve.TenantConfig{
		Name: "warm", Dataset: "shared", Batch: 4, Inflight: 8, Shuffle: true, Seed: 5,
	})
	if err != nil {
		tb.Fatalf("Attach: %v", err)
	}
	drainEpoch(tb, tn, 0)
	return tn
}

// drainEpoch runs one epoch of tn to its end, releasing every batch.
func drainEpoch(tb testing.TB, tn *dataserve.Tenant, epoch int) {
	it := tn.Epoch(epoch)
	defer it.Close()
	n := 0
	for {
		b, err := it.Next()
		if err != nil {
			tb.Fatalf("Next: %v", err)
		}
		if b == nil {
			break
		}
		n += b.Size()
		b.Release()
	}
	if n != warmSamples {
		tb.Fatalf("epoch %d delivered %d samples, want %d", epoch, n, warmSamples)
	}
}

// TestTenantEpochStartsNoGoroutines pins the consumer-driven epoch: Epoch
// and Next queue requests and reorder outcomes on the caller's goroutine,
// so a live epoch adds no goroutine to the service's workers.
func TestTenantEpochStartsNoGoroutines(t *testing.T) {
	tn := warmTenant(t)
	before := runtime.NumGoroutine()
	it := tn.Epoch(1)
	defer it.Close()
	b, err := it.Next()
	if err != nil || b == nil {
		t.Fatalf("first batch: %v %v", b, err)
	}
	b.Release()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a live epoch runs %d goroutines beyond the service's", after-before)
	}
}

// TestTenantEpochAllocs bounds a warm 96-sample tenant epoch's heap
// allocations, workers included: the Iterator and its abort channel, and
// nothing per sample. The schedule, ring and completions come back from
// the previous epoch (epochBufs).
func TestTenantEpochAllocs(t *testing.T) {
	tn := warmTenant(t)
	epoch := 1
	n := testing.AllocsPerRun(10, func() {
		drainEpoch(t, tn, epoch)
		epoch++
	})
	t.Logf("warm %d-sample tenant epoch: %v allocs", warmSamples, n)
	if n > 2 {
		t.Fatalf("a warm %d-sample tenant epoch allocates %v times, want at most 2", warmSamples, n)
	}
}

// BenchmarkTenantEpoch is one warm tenant epoch through the real service:
// every request a shared-cache hit, so the figure is the consumer's and
// workers' per-sample framework cost plus a checksum and a copy.
func BenchmarkTenantEpoch(b *testing.B) {
	tn := warmTenant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainEpoch(b, tn, i+1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*warmSamples), "ns/sample")
}

// hookFormat wraps rawF32Format with a hook that runs before every chunk
// decode.
type hookFormat struct {
	inner rawF32Format
	hook  func()
}

func (f hookFormat) Name() string { return "hookf32" }

func (f hookFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	cd, err := f.inner.Open(blob)
	if err != nil {
		return nil, err
	}
	return &hookDecoder{ChunkDecoder: cd, hook: f.hook}, nil
}

type hookDecoder struct {
	codec.ChunkDecoder
	hook func()
}

func (d *hookDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	d.hook()
	return d.ChunkDecoder.DecodeChunk(chunk, dst)
}

// TestColdBurstOccupiesEveryWorker guards the idle workers' wake-ups: a
// burst of cold requests queued in one Epoch call must wake all four
// workers, not just the first, so four decodes overlap.
func TestColdBurstOccupiesEveryWorker(t *testing.T) {
	const samples = 32
	var active, peak atomic.Int32
	slowDecode := func() {
		n := active.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		active.Add(-1)
	}
	svc := newService(t, buildDataset(samples, testShape), nil, dataserve.DatasetConfig{
		Format: hookFormat{inner: rawF32Format{testShape}, hook: slowDecode},
	})
	tn, err := svc.Attach(dataserve.TenantConfig{
		Name: "cold", Dataset: "shared", Batch: 4, Inflight: 16,
	})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // every worker has gone idle
	if _, n := digestBatches(t, tn.Epoch(0)); n != samples {
		t.Fatalf("epoch delivered %d samples, want %d", n, samples)
	}
	if got := peak.Load(); got != 4 {
		t.Fatalf("peak decode concurrency %d, want all 4 workers", got)
	}
}

// TestDetachClosesEveryLiveIterator opens two epochs of one tenant whose
// decodes cannot finish and detaches it while the older epoch's Next is
// blocked: the older iterator must be closed too, so its Next reports the
// detach at once instead of waiting for requests Detach dropped.
func TestDetachClosesEveryLiveIterator(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	svc := newService(t, buildDataset(32, testShape), nil, dataserve.DatasetConfig{
		Format: hookFormat{inner: rawF32Format{testShape}, hook: func() { <-gate }},
	})
	tn, err := svc.Attach(dataserve.TenantConfig{Name: "t", Dataset: "shared", Batch: 4, Inflight: 4})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	older, newer := tn.Epoch(0), tn.Epoch(1)
	blocked := make(chan error, 1)
	go func() {
		_, err := older.Next()
		blocked <- err
	}()
	tn.Detach()
	select {
	case err := <-blocked:
		if !errors.Is(err, dataserve.ErrDetached) {
			t.Errorf("epoch 0 Next across Detach = %v, want the detach error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("epoch 0 Next still blocked 5 s after Detach")
	}
	if _, err := newer.Next(); !errors.Is(err, dataserve.ErrDetached) {
		t.Errorf("epoch 1 Next after Detach = %v, want the detach error", err)
	}
	older.Close()
	newer.Close()
}

// TestWatchdogScansEveryLiveIterator stalls a tenant's older epoch while
// its newer epoch drains cleanly: the watchdog must find the stall on the
// older iterator, not only on the most recent one.
func TestWatchdogScansEveryLiveIterator(t *testing.T) {
	const samples, batch = 16, 4
	clock := &trace.VirtualClock{}
	svc := dataserve.New(dataserve.Config{Workers: 2, Clock: clock, StallSeconds: 10})
	defer svc.Close()
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: buildDataset(samples, testShape), Format: rawF32Format{testShape},
		Cache: pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tn, err := svc.Attach(dataserve.TenantConfig{Name: "t", Dataset: "shared", Batch: batch, Inflight: 4})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	stalled := tn.Epoch(0) // never drained
	defer stalled.Close()
	if _, n := digestBatches(t, tn.Epoch(1)); n != samples {
		t.Fatalf("newer epoch delivered %d samples, want %d", n, samples)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tn.Stats().SlowDetached == 0 {
		clock.Advance(10)
		if time.Now().After(deadline) {
			t.Fatal("watchdog never detached the tenant with a stalled older epoch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := stalled.Next(); !errors.Is(err, dataserve.ErrDetached) {
		t.Errorf("stalled epoch Next after the watchdog fired = %v, want the detach error", err)
	}
}
