package dataserve_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// slowFormat wraps rawF32Format with a per-chunk decode delay so a burst of
// requests builds a real worker backlog: the fairness tests need the
// deficit-round-robin interleaving to be observable, not drained instantly.
type slowFormat struct {
	inner rawF32Format
	delay time.Duration
}

func (f slowFormat) Name() string { return "slowf32" }

func (f slowFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	cd, err := f.inner.Open(blob)
	if err != nil {
		return nil, err
	}
	return &slowDecoder{ChunkDecoder: cd, delay: f.delay}, nil
}

type slowDecoder struct {
	codec.ChunkDecoder
	delay time.Duration
}

func (d *slowDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	time.Sleep(d.delay)
	return d.ChunkDecoder.DecodeChunk(chunk, dst)
}

// TestFairnessLightTenantLag is the starvation regression test: a heavy
// tenant keeping ~10x the light tenant's requests outstanding must not push
// the light tenant's p99 queue wait past a fixed dispatch-lag bound.
//
// The bound is the DRR guarantee, not a tuned constant: a light request
// waits behind at most Inflight-1 = 3 of its own queue plus, per round
// those take to drain (ceil(4/quantum) = 2 rounds), the heavy tenant's
// quantum*Weight = 2 dispatches — about 7 dispatches, plus boundary slop
// for the round the DRR pick is mid-quantum in. The histogram bucket
// covering that is 16. An unfair pick that drains the heavy backlog
// first would show lag near the heavy tenant's backlog depth (~40).
func TestFairnessLightTenantLag(t *testing.T) {
	const samples = 48
	const heavyInflight, lightInflight = 40, 4
	ds := buildDataset(samples, testShape)

	svc := dataserve.New(dataserve.Config{Workers: 2})
	defer svc.Close()
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: slowFormat{inner: rawF32Format{testShape}, delay: 250 * time.Microsecond},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	heavy, err := svc.Attach(dataserve.TenantConfig{
		Name: "heavy", Dataset: "shared", Batch: 4,
		Inflight: heavyInflight, Shuffle: true, Seed: 7,
	})
	if err != nil {
		t.Fatalf("Attach heavy: %v", err)
	}
	light, err := svc.Attach(dataserve.TenantConfig{
		Name: "light", Dataset: "shared", Batch: 4,
		Inflight: lightInflight, Shuffle: true, Seed: 99,
	})
	if err != nil {
		t.Fatalf("Attach light: %v", err)
	}

	// Launch the heavy tenant first and give its burst a head start so its
	// backlog is standing when the light tenant's requests arrive.
	var heavyDigest uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		heavyDigest = tenantDigest(t, heavy, 1)
	}()
	time.Sleep(5 * time.Millisecond)
	lightDigest := tenantDigest(t, light, 1)
	<-done

	if want := loaderDigest(t, ds, 4, true, 7, 1); heavyDigest != want {
		t.Errorf("heavy digest %#x != single-tenant twin %#x", heavyDigest, want)
	}
	if want := loaderDigest(t, ds, 4, true, 99, 1); lightDigest != want {
		t.Errorf("light digest %#x != single-tenant twin %#x", lightDigest, want)
	}

	hs, ls := heavy.Stats(), light.Stats()
	t.Logf("heavy: max=%d p99=%d  light: max=%d p99=%d",
		hs.QueueWaitMax, hs.QueueWaitP99, ls.QueueWaitMax, ls.QueueWaitP99)
	// The heavy tenant's burst outruns the two workers (slow decodes, and a
	// worker picks only when free), so its own tail requests wait out most
	// of the backlog.
	// Without that standing queue the light tenant's bound would be vacuous.
	if hs.QueueWaitMax < 16 {
		t.Errorf("heavy tenant built no backlog (max lag %d); contention did not materialize", hs.QueueWaitMax)
	}
	const bound = 16
	if ls.QueueWaitP99 > bound {
		t.Errorf("light tenant p99 queue wait %d exceeds fairness bound %d (max %d): heavy tenant starved it",
			ls.QueueWaitP99, bound, ls.QueueWaitMax)
	}
}

// TestDetachMidEpochNoLeak detaches a tenant in the middle of an epoch while
// a second tenant keeps running: the survivor must stay bit-identical to its
// single-tenant twin, and after the service closes no goroutines may remain
// — a detach that strands flight waiters or workers shows up here.
func TestDetachMidEpochNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const samples, batch = 32, 4
	ds := buildDataset(samples, testShape)

	svc := dataserve.New(dataserve.Config{Workers: 4})
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: slowFormat{inner: rawF32Format{testShape}, delay: 100 * time.Microsecond},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	doomed, err := svc.Attach(dataserve.TenantConfig{
		Name: "doomed", Dataset: "shared", Batch: batch,
		Inflight: 16, Shuffle: true, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Attach doomed: %v", err)
	}
	survivor, err := svc.Attach(dataserve.TenantConfig{
		Name: "survivor", Dataset: "shared", Batch: batch,
		Inflight: 8, Shuffle: true, Seed: 11,
	})
	if err != nil {
		t.Fatalf("Attach survivor: %v", err)
	}

	var survivorDigest uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivorDigest = tenantDigest(t, survivor, 2)
	}()

	// Consume two batches, then detach with requests still in flight.
	it := doomed.Epoch(0)
	if it == nil {
		t.Fatal("doomed: nil epoch iterator")
	}
	for i := 0; i < 2; i++ {
		b, err := it.Next()
		if err != nil || b == nil {
			t.Fatalf("doomed batch %d: %v %v", i, b, err)
		}
		b.Release()
	}
	doomed.Detach()
	doomed.Detach() // idempotent
	if _, err := it.Next(); err == nil {
		t.Error("doomed iterator Next after detach: want error, got nil")
	}
	if got := doomed.Epoch(1); got != nil {
		t.Error("detached tenant Epoch: want nil iterator")
		got.Close()
	}

	wg.Wait()
	if want := loaderDigest(t, ds, batch, true, 11, 2); survivorDigest != want {
		t.Errorf("survivor digest %#x != single-tenant twin %#x after mid-epoch detach", survivorDigest, want)
	}

	svc.Close()
	svc.Close() // idempotent

	// Zero-goroutine-leak check, with a settle loop for runtime bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after detach+close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWeightedShares drives two backlogged tenants with weights 3:1 through
// throttled workers and checks the DRR deficit actually skews service:
// the weighted tenant's p99 queue wait must not exceed the unweighted one's.
func TestWeightedShares(t *testing.T) {
	const samples = 40
	ds := buildDataset(samples, testShape)

	svc := dataserve.New(dataserve.Config{Workers: 2})
	defer svc.Close()
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: slowFormat{inner: rawF32Format{testShape}, delay: 250 * time.Microsecond},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	var tenants [2]*dataserve.Tenant
	for i, cfg := range []dataserve.TenantConfig{
		{Name: "wide", Dataset: "shared", Batch: 4, Inflight: 24, Weight: 3, Shuffle: true, Seed: 5},
		{Name: "narrow", Dataset: "shared", Batch: 4, Inflight: 24, Weight: 1, Shuffle: true, Seed: 6},
	} {
		tn, err := svc.Attach(cfg)
		if err != nil {
			t.Fatalf("Attach %s: %v", cfg.Name, err)
		}
		tenants[i] = tn
	}

	var wg sync.WaitGroup
	digests := make([]uint64, 2)
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn *dataserve.Tenant) {
			defer wg.Done()
			digests[i] = tenantDigest(t, tn, 1)
		}(i, tn)
	}
	wg.Wait()

	for i, seed := range []uint64{5, 6} {
		if want := loaderDigest(t, ds, 4, true, seed, 1); digests[i] != want {
			t.Errorf("tenant %d digest %#x != twin %#x", i, digests[i], want)
		}
	}
	ws, ns := tenants[0].Stats(), tenants[1].Stats()
	t.Logf("wide(w=3): max=%d p99=%d  narrow(w=1): max=%d p99=%d",
		ws.QueueWaitMax, ws.QueueWaitP99, ns.QueueWaitMax, ns.QueueWaitP99)
	if ws.QueueWaitP99 > ns.QueueWaitP99 {
		t.Errorf("weight-3 tenant p99 lag %d exceeds weight-1 tenant's %d: weights not honored",
			ws.QueueWaitP99, ns.QueueWaitP99)
	}
	if got, want := ws.Samples+ns.Samples, int64(2*samples); got != want {
		t.Errorf("delivered samples %d, want %d", got, want)
	}
}
