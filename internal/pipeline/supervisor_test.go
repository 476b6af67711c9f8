package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/trace"
)

// epochValues drains one epoch and returns the delivered sample indices and
// first data element per sample — enough to prove bit-identity between a
// chaos run and a clean run (countFormat fills tensors with blob[0]).
func epochValues(t *testing.T, it *Iterator) (indices []int, values []float32) {
	t.Helper()
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b == nil {
			return indices, values
		}
		for s := range b.Data {
			indices = append(indices, b.Indices[s])
			values = append(values, b.Data[s].F32s[0])
		}
		b.Release()
	}
}

func TestSupervisedPanicRecoveryBitIdentical(t *testing.T) {
	const n = 48
	clean, err := New(testDataset(n), Config{Format: countFormat{}, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantVal := epochValues(t, clean.Epoch(0))

	reg := obs.NewRegistry()
	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 21, Panic: 0.2})
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4,
		Resilience: Resilience{MaxRetries: 1},
		Supervise:  SupervisorConfig{MaxRestarts: 64},
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotIdx, gotVal := epochValues(t, l.Epoch(0))

	if !reflect.DeepEqual(gotIdx, wantIdx) || !reflect.DeepEqual(gotVal, wantVal) {
		t.Fatalf("chaos epoch diverged from clean run:\n got %v %v\nwant %v %v", gotIdx, gotVal, wantIdx, wantVal)
	}
	if len(in.Log()) == 0 {
		t.Fatal("injector logged no panics at p=0.2 over 48 samples")
	}
}

func TestSupervisedPanicStatsReconcile(t *testing.T) {
	const n = 48
	reg := obs.NewRegistry()
	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 21, Panic: 0.2})
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4,
		Resilience: Resilience{MaxRetries: 1},
		Supervise:  SupervisorConfig{MaxRestarts: 64},
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	if _, err := it.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	log := in.Log()
	st := it.Stats()
	if st.Panics != len(log) {
		t.Fatalf("Stats.Panics = %d, injector logged %d", st.Panics, len(log))
	}
	if st.Retried != len(log) {
		t.Fatalf("Stats.Retried = %d, want %d (one retry per recovered panic)", st.Retried, len(log))
	}
	if st.Decoded != n {
		t.Fatalf("Stats.Decoded = %d, want %d", st.Decoded, n)
	}
	s := reg.Snapshot()
	if v := s.Counter("pipeline.worker.panics"); v != int64(len(log)) {
		t.Fatalf("pipeline.worker.panics = %d, injector logged %d", v, len(log))
	}
	if v := s.Counter("pipeline.errors.transient"); v != int64(len(log)) {
		t.Fatalf("pipeline.errors.transient = %d, want %d (panics are transient)", v, len(log))
	}
}

func TestWorkerPanicWithoutRetryIsSampleError(t *testing.T) {
	in := fault.WrapStage(testDataset(8), fault.StageFaultConfig{Seed: 21, Panic: 1})
	l, err := New(in, Config{Format: countFormat{}, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	defer it.Close()
	_, err = it.Next()
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("Next = %v, want *SampleError", err)
	}
	var pe *WorkerPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *WorkerPanicError", err)
	}
	if pe.Stage != "read" || pe.Index != se.Index {
		t.Fatalf("panic error names stage %q sample %d, SampleError sample %d", pe.Stage, pe.Index, se.Index)
	}
	if !errors.Is(err, fault.Transient) {
		t.Fatal("worker panic is not marked transient")
	}
}

func TestPanicRestartBudgetExhausted(t *testing.T) {
	// Every access of every sample panics; retries never exhaust. The only
	// way out is the supervisor's restart budget, which must abort the
	// epoch with a typed *SupervisorError rather than crash-loop.
	in := fault.WrapStage(testDataset(8), fault.StageFaultConfig{Seed: 3, Panic: 1, PanicEvents: 1 << 20})
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 2,
		Resilience: Resilience{MaxRetries: 1 << 20},
		Supervise:  SupervisorConfig{MaxRestarts: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	defer it.Close()
	done := make(chan error, 1)
	go func() {
		_, err := it.Drain()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("epoch hung instead of aborting on an exhausted restart budget")
	}
	var supErr *SupervisorError
	if !errors.As(err, &supErr) {
		t.Fatalf("Drain = %v, want *SupervisorError", err)
	}
	if supErr.Stage != "read" || supErr.Restarts <= 4 {
		t.Fatalf("SupervisorError names stage %q after %d restarts, want read > 4", supErr.Stage, supErr.Restarts)
	}
	if it.Stats().Panics < 5 {
		t.Fatalf("Stats.Panics = %d, want >= 5", it.Stats().Panics)
	}
}

func TestStallWatchdogRestartsStage(t *testing.T) {
	const n = 32
	clean, err := New(testDataset(n), Config{Format: countFormat{}, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantVal := epochValues(t, clean.Epoch(0))

	reg := obs.NewRegistry()
	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 9, Stall: 0.1})
	defer in.Release() // unwedge abandoned workers so they drain and exit
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4,
		Supervise: SupervisorConfig{MaxRestarts: 64, StallDeadline: 0.03, StallRestart: true},
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	gotIdx, gotVal := epochValues(t, it)
	if !reflect.DeepEqual(gotIdx, wantIdx) || !reflect.DeepEqual(gotVal, wantVal) {
		t.Fatalf("stalled epoch diverged from clean run:\n got %v %v\nwant %v %v", gotIdx, gotVal, wantIdx, wantVal)
	}
	log := in.Log()
	if len(log) == 0 {
		t.Fatal("injector logged no stalls at p=0.1 over 32 samples")
	}
	// Indefinite stalls guarantee exactly one watchdog detection each, so
	// the stall accounting reconciles exactly against the injector log.
	if st := it.Stats(); st.Stalls != len(log) {
		t.Fatalf("Stats.Stalls = %d, injector logged %d", st.Stalls, len(log))
	}
	s := reg.Snapshot()
	if v := s.Counter("pipeline.worker.stalls"); v != int64(len(log)) {
		t.Fatalf("pipeline.worker.stalls = %d, injector logged %d", v, len(log))
	}
	// The watchdog snapshotted queue state at detection time.
	if g := s.Gauge("pipeline.stall.inflight"); g.Max < 1 {
		t.Fatalf("pipeline.stall.inflight gauge = %v, want >= 1", g.Max)
	}
}

func TestStallWatchdogAbortsWithStallError(t *testing.T) {
	in := fault.WrapStage(testDataset(16), fault.StageFaultConfig{Seed: 9, Stall: 0.2})
	defer in.Release()
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4,
		Supervise: SupervisorConfig{StallDeadline: 0.03, StallRestart: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	defer it.Close()
	done := make(chan error, 1)
	go func() {
		_, err := it.Drain()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("epoch hung instead of aborting on a stall")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Drain = %v, want *StallError", err)
	}
	if stall.Stage != "read" {
		t.Fatalf("StallError names stage %q, want read", stall.Stage)
	}
	if stall.Seconds < 0.03 {
		t.Fatalf("StallError reports %.3fs in flight, want >= deadline", stall.Seconds)
	}
}

func TestStallWatchdogOnVirtualClock(t *testing.T) {
	// The watchdog judges deadlines on the loader's clock: with a
	// VirtualClock, stalls are detected in virtual time. The pump goroutine
	// stands in for the simulation driver advancing time.
	clock := &trace.VirtualClock{}
	in := fault.WrapStage(testDataset(16), fault.StageFaultConfig{Seed: 9, Stall: 0.2})
	defer in.Release()
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4, Clock: clock,
		Supervise: SupervisorConfig{MaxRestarts: 64, StallDeadline: 10, StallRestart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(5)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	n, err := it.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 16 {
		t.Fatalf("Drain = %d samples, want 16", n)
	}
	if st := it.Stats(); st.Stalls != len(in.Log()) {
		t.Fatalf("Stats.Stalls = %d, injector logged %d", st.Stalls, len(in.Log()))
	}
}

// TestInjectedStallsOnVirtualClock drives the watchdog with the stall
// injector alone: each wedge passes twice the deadline on the loader's
// virtual clock. With one sample in flight the watchdog must flag exactly
// the injected stalls, even when a wedge moves the clock while the
// watchdog is between a scan and its next alarm, and the epoch must end.
func TestInjectedStallsOnVirtualClock(t *testing.T) {
	clock := &trace.VirtualClock{}
	in := fault.WrapStage(testDataset(32), fault.StageFaultConfig{Seed: 9, Stall: 0.3, StallAdvance: 20, Clock: clock})
	defer in.Release()
	l, err := New(in, Config{
		Format: countFormat{}, Batch: 4, Prefetch: 1, Clock: clock,
		Supervise: SupervisorConfig{MaxRestarts: 64, StallDeadline: 10, StallRestart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	drained := make(chan error, 1)
	go func() {
		n, err := it.Drain()
		if err == nil && n != 32 {
			err = fmt.Errorf("Drain = %d samples, want 32", n)
		}
		drained <- err
	}()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("epoch hung: a stall was never flagged")
	}
	if st, n := it.Stats(), len(in.Log()); n == 0 || st.Stalls != n {
		t.Fatalf("Stats.Stalls = %d, injector logged %d", st.Stalls, n)
	}
}

func TestSupervisorGoRecoversMachineryPanic(t *testing.T) {
	sup := newSupervisor(SupervisorConfig{}, &trace.VirtualClock{}, nil)
	got := make(chan error, 1)
	sup.fatalFn = func(err error) { got <- err }
	sup.Go("machinery", func() { panic("broken plumbing") })
	select {
	case err := <-got:
		var pe *WorkerPanicError
		if !errors.As(err, &pe) || pe.Stage != "machinery" || pe.Index != -1 {
			t.Fatalf("fatal = %v, want *WorkerPanicError{Stage: machinery, Index: -1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("machinery panic did not reach fatalFn")
	}
}

func TestSupervisorAbandonSuppressesStaleAttempt(t *testing.T) {
	// Admission must drop a member whose generation is below the valid
	// floor; settling must refuse the emit of a member abandoned while its
	// run was held, discarding its output, and end must refuse to route a
	// failure of an abandoned attempt. The deadline arms the flight
	// bookkeeping — without a watchdog the supervisor runs passive and
	// nothing can ever be abandoned.
	sup := newSupervisor(SupervisorConfig{StallDeadline: 10}, &trace.VirtualClock{}, nil)
	var free runFree[item[int]]
	var discarded []int
	discard := func(v int) { discarded = append(discarded, v) }

	r := free.one(item[int]{seq: 7, index: 3, val: 70})
	r.items = append(r.items, item[int]{seq: 8, index: 4, val: 80})
	admitRun(sup, "read", r)
	if len(r.items) != 2 || !sup.live(7, 0) {
		t.Fatal("fresh attempt refused")
	}
	sup.mu.Lock()
	sup.valid[7] = 1 // watchdog abandoned gen 0 while the run was held
	sup.mu.Unlock()
	if sup.live(7, 0) {
		t.Fatal("abandoned attempt still live")
	}
	settleRun(sup, r, discard)
	if len(r.items) != 1 || r.items[0].seq != 8 || !equalInts(discarded, []int{70}) {
		t.Fatalf("abandoned attempt allowed to emit: run %v, discarded %v", r.items, discarded)
	}
	free.put(r)

	r = free.one(item[int]{seq: 7, index: 3, val: 70})
	admitRun(sup, "read", r)
	if len(r.items) != 0 {
		t.Fatal("stale generation allowed to start")
	}
	r.items = append(r.items, item[int]{seq: 7, index: 3, gen: 1, val: 71})
	admitRun(sup, "read", r)
	if len(r.items) != 1 {
		t.Fatal("successor generation refused")
	}
	settleRun(sup, r, discard)
	if len(r.items) != 1 || len(discarded) != 1 {
		t.Fatal("successor generation refused to emit")
	}
	free.put(r)

	r = free.one(item[int]{seq: 9, index: 5})
	admitRun(sup, "read", r)
	sup.mu.Lock()
	sup.valid[9] = 1
	sup.mu.Unlock()
	if sup.end(9, 0) {
		t.Fatal("abandoned attempt allowed to route its failure")
	}
	if len(sup.inflight) != 0 {
		t.Fatalf("%d flights left registered", len(sup.inflight))
	}
}

func TestSupervisorPassiveSkipsFlightTracking(t *testing.T) {
	// No stall deadline means no watchdog, so admission, the live check,
	// settling and end must pass every attempt without paying for the
	// flight table on the hot path.
	sup := newSupervisor(SupervisorConfig{}, &trace.VirtualClock{}, nil)
	if !sup.passive {
		t.Fatal("zero-deadline supervisor not passive")
	}
	var free runFree[item[int]]
	r := free.one(item[int]{seq: 7, index: 3})
	admitRun(sup, "read", r)
	if len(r.items) != 1 || !sup.live(7, 0) {
		t.Fatal("passive admission refused an attempt")
	}
	settleRun(sup, r, nil)
	if len(r.items) != 1 || !sup.end(7, 0) {
		t.Fatal("passive settle refused an emit")
	}
	if len(sup.inflight) != 0 {
		t.Fatalf("passive supervisor tracked %d flights", len(sup.inflight))
	}
}
