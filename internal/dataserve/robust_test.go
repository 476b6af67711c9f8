package dataserve_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scipp/internal/dataserve"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// flakyDataset fails every Blob read while tripped, so tests can switch a
// whole dataset between healthy and failing without mutating shared blobs
// under concurrent readers.
type flakyDataset struct {
	inner pipeline.Dataset
	fail  atomic.Bool
}

func (d *flakyDataset) Len() int { return d.inner.Len() }

func (d *flakyDataset) Blob(i int) ([]byte, error) {
	if d.fail.Load() {
		return nil, fmt.Errorf("flaky: sample %d read failed", i)
	}
	return d.inner.Blob(i)
}

func (d *flakyDataset) Label(i int) (*tensor.Tensor, error) { return d.inner.Label(i) }

// leakCheck fails the test if the goroutine count has not settled back to
// the baseline (plus slack) within five seconds.
func leakCheck(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBreakerTripAndRecover drives one tenant through the full breaker arc
// on a virtual clock: a failing dataset exhausts the error budget, the
// breaker trips and fast-fails the rest of the epoch with *BreakerError,
// and after the dataset heals and the backoff elapses a half-open probe
// closes the breaker and the next epoch runs clean, bit-identical to a
// private twin.
func TestBreakerTripAndRecover(t *testing.T) {
	const samples, batch = 24, 4
	clock := &trace.VirtualClock{}
	base := buildDataset(samples, testShape)
	flaky := &flakyDataset{inner: base}
	flaky.fail.Store(true)

	svc := dataserve.New(dataserve.Config{Workers: 2, Clock: clock})
	defer svc.Close()
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: flaky, Format: rawF32Format{testShape},
		Cache: pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Inflight 1 serializes requests, so the recovery epoch's first request
	// is the half-open probe and its success reopens admission before the
	// second request arrives (concurrent requests during a probe fast-fail
	// by design).
	tn, err := svc.Attach(dataserve.TenantConfig{
		Name: "t", Dataset: "shared", Batch: batch, Inflight: 1,
		MaxBadSamples: samples,
		Breaker:       dataserve.BreakerConfig{Threshold: 4, Window: 8, Backoff: 0.5},
	})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// Epoch 0: every decode fails; the budget (4 failures in a window of 8)
	// trips the breaker and the epoch terminates with a typed *BreakerError.
	it := tn.Epoch(0)
	var berr *dataserve.BreakerError
	for {
		b, err := it.Next()
		if err != nil {
			if !errors.As(err, &berr) {
				t.Fatalf("Next: %v, want *BreakerError", err)
			}
			break
		}
		if b == nil {
			t.Fatal("failing epoch ended cleanly; want *BreakerError")
		}
		b.Release()
	}
	it.Close()
	if berr.Tenant != "t" || berr.Retry <= 0 {
		t.Errorf("BreakerError %+v, want tenant t with a positive retry interval", berr)
	}
	ts := tn.Stats()
	if ts.BreakerTrips < 1 {
		t.Errorf("BreakerTrips = %d, want >= 1", ts.BreakerTrips)
	}
	if ts.BreakerRejects < 1 {
		t.Errorf("BreakerRejects = %d, want >= 1", ts.BreakerRejects)
	}
	if ts.Skips < 4 {
		t.Errorf("Skips = %d, want >= threshold 4 (the failures that tripped it)", ts.Skips)
	}

	// While open and the clock frozen, a fresh epoch is cut off immediately:
	// no request reaches a worker.
	dispatchedBefore := svc.Stats().Dispatched
	it = tn.Epoch(1)
	if _, err := it.Next(); !errors.As(err, &berr) {
		t.Fatalf("open-breaker epoch: %v, want *BreakerError", err)
	}
	it.Close()
	if got := svc.Stats().Dispatched; got != dispatchedBefore {
		t.Errorf("open breaker consumed %d worker dispatches", got-dispatchedBefore)
	}

	// The dataset heals and the backoff elapses: the next admission is the
	// half-open probe, it succeeds, and the epoch completes clean and
	// bit-identical to a private loader twin.
	flaky.fail.Store(false)
	clock.Advance(1.0)
	l, err := pipeline.New(base, pipeline.Config{Format: rawF32Format{testShape}, Batch: batch})
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	wantH, wantN := digestBatches(t, l.Epoch(2))
	gotH, gotN := digestBatches(t, tn.Epoch(2))
	if gotH != wantH || gotN != wantN {
		t.Errorf("recovered epoch digest %#x (%d samples), twin %#x (%d)", gotH, gotN, wantH, wantN)
	}

	ts = tn.Stats()
	if ts.BreakerProbes != 1 {
		t.Errorf("BreakerProbes = %d, want exactly 1", ts.BreakerProbes)
	}
}

// TestBreakerIsolation is the bulkhead proof: a rogue tenant whose dataset
// fails 100% of decodes trips its breaker, while a victim tenant on a
// healthy dataset of the same service stays bit-identical to its private
// twin with its p99 dispatch lag inside the PR-8 fairness bound.
func TestBreakerIsolation(t *testing.T) {
	const samples, batch = 32, 4
	good := buildDataset(samples, testShape)
	bad := &flakyDataset{inner: buildDataset(samples, testShape)}
	bad.fail.Store(true)

	svc := dataserve.New(dataserve.Config{Workers: 2})
	defer svc.Close()
	for name, ds := range map[string]pipeline.Dataset{"good": good, "bad": bad} {
		if err := svc.Register(dataserve.DatasetConfig{
			Name: name, Data: ds,
			Format: slowFormat{inner: rawF32Format{testShape}, delay: 100 * time.Microsecond},
			Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
		}); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	rogue, err := svc.Attach(dataserve.TenantConfig{
		Name: "rogue", Dataset: "bad", Batch: batch, Inflight: 16,
		MaxBadSamples: samples,
		Breaker:       dataserve.BreakerConfig{Threshold: 4, Window: 8, Backoff: 30},
	})
	if err != nil {
		t.Fatalf("Attach rogue: %v", err)
	}
	victim, err := svc.Attach(dataserve.TenantConfig{
		Name: "victim", Dataset: "good", Batch: batch, Inflight: 8, Shuffle: true, Seed: 21,
	})
	if err != nil {
		t.Fatalf("Attach victim: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The rogue floods until its breaker cuts it off.
		it := rogue.Epoch(0)
		defer it.Close()
		for {
			b, err := it.Next()
			if err != nil {
				var berr *dataserve.BreakerError
				if !errors.As(err, &berr) {
					t.Errorf("rogue Next: %v, want *BreakerError", err)
				}
				return
			}
			if b == nil {
				t.Error("rogue epoch ended cleanly despite 100% failures")
				return
			}
			b.Release()
		}
	}()

	victimDigest := tenantDigest(t, victim, 2)
	wg.Wait()

	if want := loaderDigest(t, good, batch, true, 21, 2); victimDigest != want {
		t.Errorf("victim digest %#x != private twin %#x: rogue leaked into victim", victimDigest, want)
	}
	vs := victim.Stats()
	const bound = 16 // the PR-8 fairness bound
	if vs.QueueWaitP99 > bound {
		t.Errorf("victim p99 dispatch lag %d exceeds fairness bound %d", vs.QueueWaitP99, bound)
	}
	if got := rogue.Stats().BreakerTrips; got < 1 {
		t.Errorf("rogue BreakerTrips = %d, want >= 1", got)
	}
	if vs.Errors != 0 || vs.Skips != 0 || vs.BreakerTrips != 0 {
		t.Errorf("victim saw errors=%d skips=%d trips=%d, want all zero", vs.Errors, vs.Skips, vs.BreakerTrips)
	}
}

// TestShedDeadline floods throttled workers past a tenant's admission
// deadline and checks the shed accounting closes exactly: every scheduled
// sample is either delivered or shed, and the tenant and service totals
// agree to the sample.
func TestShedDeadline(t *testing.T) {
	const samples, batch = 48, 4
	ds := buildDataset(samples, testShape)
	svc := dataserve.New(dataserve.Config{Workers: 2})
	defer svc.Close()
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: ds,
		Format: slowFormat{inner: rawF32Format{testShape}, delay: 250 * time.Microsecond},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tn, err := svc.Attach(dataserve.TenantConfig{
		Name: "s", Dataset: "shared", Batch: batch, Inflight: 32,
		DeadlineLag: 4,
	})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	it := tn.Epoch(0)
	delivered := 0
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b == nil {
			break
		}
		delivered += b.Size()
		b.Release()
	}
	it.Close()

	ts := tn.Stats()
	if ts.Shed == 0 {
		t.Error("nothing shed: the overload never materialized (deepen the flood)")
	}
	if int64(delivered)+ts.Shed != samples {
		t.Errorf("delivered %d + shed %d != scheduled %d", delivered, ts.Shed, samples)
	}
	if ts.Samples != int64(delivered) {
		t.Errorf("stats.Samples %d != delivered %d", ts.Samples, delivered)
	}
	st := svc.Stats()
	if st.Shed != ts.Shed {
		t.Errorf("service shed %d != tenant shed %d", st.Shed, ts.Shed)
	}
	// Shed requests never reached a worker: dispatched + shed covers
	// the whole schedule.
	if st.Dispatched+st.Shed != samples {
		t.Errorf("dispatched %d + shed %d != scheduled %d", st.Dispatched, st.Shed, samples)
	}
}

// TestSlowConsumerWatchdog parks a consumer mid-epoch and lets the
// watchdog detach it on the virtual clock, while a healthy tenant keeps
// running untouched; afterwards nothing may leak.
func TestSlowConsumerWatchdog(t *testing.T) {
	before := runtime.NumGoroutine()
	const samples, batch = 32, 4
	ds := buildDataset(samples, testShape)
	clock := &trace.VirtualClock{}
	reg := obs.NewRegistry()
	svc := dataserve.New(dataserve.Config{
		Workers: 2, Obs: reg, Clock: clock, StallSeconds: 10,
	})
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: ds, Format: rawF32Format{testShape},
		Cache: pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	slow, err := svc.Attach(dataserve.TenantConfig{
		Name: "slow", Dataset: "shared", Batch: batch, Inflight: 4,
	})
	if err != nil {
		t.Fatalf("Attach slow: %v", err)
	}
	healthy, err := svc.Attach(dataserve.TenantConfig{
		Name: "healthy", Dataset: "shared", Batch: batch, Shuffle: true, Seed: 13,
	})
	if err != nil {
		t.Fatalf("Attach healthy: %v", err)
	}

	// Consume one batch, then stop draining: outcomes wait undrained in
	// completions, and the watchdog eventually severs the tenant.
	it := slow.Epoch(0)
	b, err := it.Next()
	if err != nil || b == nil {
		t.Fatalf("first batch: %v %v", b, err)
	}
	b.Release()
	deadline := time.Now().Add(5 * time.Second)
	for slow.Stats().SlowDetached == 0 {
		clock.Advance(10)
		if time.Now().After(deadline) {
			t.Fatal("watchdog never detached the stalled tenant")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := it.Next(); err == nil {
		t.Error("Next on watchdog-detached iterator returned nil error")
	}
	it.Close()

	if digest := tenantDigest(t, healthy, 1); digest != loaderDigest(t, ds, batch, true, 13, 1) {
		t.Error("healthy tenant diverged from its twin after the watchdog fired")
	}

	if got := slow.Stats().SlowDetached; got != 1 {
		t.Errorf("SlowDetached = %d, want 1", got)
	}
	if got := svc.Stats().SlowDetaches; got != 1 {
		t.Errorf("service SlowDetaches = %d, want 1", got)
	}
	if got := reg.Snapshot().Counter("dataserve.detached.slow"); got != 1 {
		t.Errorf("obs detached.slow = %d, want 1", got)
	}
	if got := reg.Snapshot().Counter("dataserve.tenant.slow.detached.slow"); got != 1 {
		t.Errorf("obs tenant detached.slow = %d, want 1", got)
	}

	svc.Close()
	leakCheck(t, before)
}

// TestPoisonQuarantine walks a permanently bad sample through the
// cross-tenant quarantine: each tenant's failed serve votes, the K-th
// distinct tenant blacklists it service-wide, and later epochs fast-fail
// off the blacklist without burning decodes.
func TestPoisonQuarantine(t *testing.T) {
	const samples, batch, badIndex = 12, 4, 5
	ds := buildDataset(samples, testShape)
	ds.Blobs[badIndex] = ds.Blobs[badIndex][:3] // truncated: Open always fails
	svc := newService(t, ds, nil, dataserve.DatasetConfig{PoisonK: 2})

	a, err := svc.Attach(dataserve.TenantConfig{
		Name: "a", Dataset: "shared", Batch: batch, MaxBadSamples: samples,
	})
	if err != nil {
		t.Fatalf("Attach a: %v", err)
	}
	b, err := svc.Attach(dataserve.TenantConfig{
		Name: "b", Dataset: "shared", Batch: batch, MaxBadSamples: samples,
	})
	if err != nil {
		t.Fatalf("Attach b: %v", err)
	}

	// Sequential epochs keep the vote order deterministic: a fails (vote 1),
	// b fails (vote 2 -> blacklist), then both fast-fail off the blacklist.
	drain := func(tn *dataserve.Tenant, epoch int) int {
		t.Helper()
		it := tn.Epoch(epoch)
		defer it.Close()
		n := 0
		for {
			batch, err := it.Next()
			if err != nil {
				t.Fatalf("tenant %s epoch %d: %v", tn.Name(), epoch, err)
			}
			if batch == nil {
				return n
			}
			n += batch.Size()
			batch.Release()
		}
	}
	for e, tn := range []*dataserve.Tenant{a, b, a, b} {
		if got := drain(tn, e/2); got != samples-1 {
			t.Fatalf("round %d tenant %s delivered %d, want %d (bad sample skipped)", e, tn.Name(), got, samples-1)
		}
	}

	st := svc.Stats()
	if st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
	// Rounds 3 and 4 each hit the blacklist exactly once.
	if st.PoisonRejects != 2 {
		t.Errorf("PoisonRejects = %d, want 2", st.PoisonRejects)
	}
	// Each tenant skipped the bad sample twice: once failing, once poisoned.
	for _, tn := range []*dataserve.Tenant{a, b} {
		if got := tn.Stats().Skips; got != 2 {
			t.Errorf("tenant %s Skips = %d, want 2", tn.Name(), got)
		}
	}
	// The healthy samples decoded exactly once despite the poison churn.
	if st.Decodes != samples-1 {
		t.Errorf("Decodes = %d, want %d", st.Decodes, samples-1)
	}
}

// TestDetachRacesFlightJoinOnTrip is the race-hardening satellite: a
// tenant whose breaker trips mid-epoch detaches while its requests are
// still joined on another tenant's slow in-flight decodes. Run under
// -race; afterwards the survivor must be whole and nothing may leak.
func TestDetachRacesFlightJoinOnTrip(t *testing.T) {
	before := runtime.NumGoroutine()
	const samples, batch, badIndex = 32, 4, 0
	ds := buildDataset(samples, testShape)
	ds.Blobs[badIndex] = ds.Blobs[badIndex][:3] // permanent failure at index 0

	svc := dataserve.New(dataserve.Config{Workers: 4})
	if err := svc.Register(dataserve.DatasetConfig{
		Name: "shared", Data: ds,
		Format: slowFormat{inner: rawF32Format{testShape}, delay: 200 * time.Microsecond},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	owner, err := svc.Attach(dataserve.TenantConfig{
		Name: "owner", Dataset: "shared", Batch: batch, Inflight: 8, MaxBadSamples: 1,
	})
	if err != nil {
		t.Fatalf("Attach owner: %v", err)
	}
	doomed, err := svc.Attach(dataserve.TenantConfig{
		Name: "doomed", Dataset: "shared", Batch: batch, Inflight: 16,
		MaxBadSamples: samples,
		Breaker:       dataserve.BreakerConfig{Threshold: 1, Window: 4, Backoff: 30},
	})
	if err != nil {
		t.Fatalf("Attach doomed: %v", err)
	}

	// The owner decodes the whole (slow) epoch; the doomed tenant runs the
	// same sequential schedule just behind it, joining the owner's flights.
	var ownerDelivered int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		it := owner.Epoch(0)
		defer it.Close()
		for {
			b, err := it.Next()
			if err != nil {
				t.Errorf("owner Next: %v", err)
				return
			}
			if b == nil {
				return
			}
			atomic.AddInt64(&ownerDelivered, int64(b.Size()))
			b.Release()
		}
	}()

	it := doomed.Epoch(0)
	// Sample 0 fails -> threshold 1 trips the breaker while later requests
	// are mid-join on the owner's flights. Wait for the trip, then detach.
	deadline := time.Now().Add(5 * time.Second)
	for doomed.Stats().BreakerTrips == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		time.Sleep(time.Millisecond)
	}
	doomed.Detach()
	if _, err := it.Next(); err == nil {
		t.Error("detached iterator Next returned nil error")
	}
	it.Close()

	wg.Wait()
	if got := atomic.LoadInt64(&ownerDelivered); got != samples-1 {
		t.Errorf("owner delivered %d, want %d (bad sample skipped, detach invisible)", got, samples-1)
	}
	if got := doomed.Stats().BreakerTrips; got != 1 {
		t.Errorf("doomed BreakerTrips = %d, want 1", got)
	}

	svc.Close()
	leakCheck(t, before)
}
