package pipeline

import (
	"cmp"
	"errors"
	"sync"
	"testing"

	"scipp/internal/fault"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// flakyDataset fails Blob/Label with Transient-marked errors a configured
// number of times per sample before recovering — the minimal stand-in for a
// flaky mount, independent of the fault package's own injector.
type flakyDataset struct {
	*MemDataset
	mu         sync.Mutex
	blobFails  map[int]int
	labelFails map[int]int
}

func (d *flakyDataset) take(m map[int]int, i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m[i] > 0 {
		m[i]--
		return true
	}
	return false
}

func (d *flakyDataset) Blob(i int) ([]byte, error) {
	if d.take(d.blobFails, i) {
		return nil, fault.MarkTransient(errors.New("flaky blob read"))
	}
	return d.MemDataset.Blob(i)
}

func (d *flakyDataset) Label(i int) (*tensor.Tensor, error) {
	if d.take(d.labelFails, i) {
		return nil, fault.MarkTransient(errors.New("flaky label read"))
	}
	return d.MemDataset.Label(i)
}

func flaky(n int) *flakyDataset {
	return &flakyDataset{
		MemDataset: testDataset(n),
		blobFails:  make(map[int]int),
		labelFails: make(map[int]int),
	}
}

// drainAll pulls batches until end-of-epoch or error, returning delivered
// indices.
func drainAll(t *testing.T, it *Iterator) ([]int, error) {
	t.Helper()
	var got []int
	for {
		b, err := it.Next()
		if err != nil {
			return got, err
		}
		if b == nil {
			return got, nil
		}
		got = append(got, b.Indices...)
	}
}

// TestDefaultPolicySampleError pins the zero-policy contract: the first bad
// sample fails the epoch with a typed *SampleError carrying its index, and
// Close then Drain after that path must terminate cleanly (regression for
// the error-path Close inside Next relying on the background drain
// goroutine; run under -race via the merge gate).
func TestDefaultPolicySampleError(t *testing.T) {
	ds := testDataset(8)
	ds.Blobs[3] = nil // Open fails
	l, err := New(ds, Config{Format: countFormat{}, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	_, err = drainAll(t, it)
	if err == nil {
		t.Fatal("bad sample did not surface an error")
	}
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) does not unwrap to *SampleError", err, err)
	}
	if se.Index != 3 {
		t.Errorf("SampleError.Index = %d, want 3", se.Index)
	}
	// Error-then-Close-then-Drain must not deadlock, double-close, or race.
	it.Close()
	if _, err := it.Drain(); err != nil {
		var se2 *SampleError
		if !errors.As(err, &se2) {
			t.Errorf("post-close Drain returned untyped error %v", err)
		}
	}
	st := it.Stats()
	if len(st.Errors) == 0 || st.Errors[0].Index != 3 {
		t.Errorf("Stats.Errors = %+v, want first entry for sample 3", st.Errors)
	}
	if st.Skipped != 0 {
		t.Errorf("Stats.Skipped = %d, want 0 under the zero policy", st.Skipped)
	}
}

func TestSkipWithinQuota(t *testing.T) {
	ds := testDataset(10)
	for _, i := range []int{2, 5, 7} {
		ds.Blobs[i] = nil
	}
	l, err := New(ds, Config{
		Format:     countFormat{},
		Batch:      2,
		Resilience: Resilience{MaxBadSamples: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	got, err := drainAll(t, it)
	if err != nil {
		t.Fatalf("epoch failed despite quota: %v", err)
	}
	if len(got) != 7 {
		t.Errorf("delivered %d samples, want 7", len(got))
	}
	for _, i := range got {
		if i == 2 || i == 5 || i == 7 {
			t.Errorf("bad sample %d was delivered", i)
		}
	}
	st := it.Stats()
	if st.Decoded != 7 || st.Skipped != 3 {
		t.Errorf("Stats = decoded %d / skipped %d, want 7 / 3", st.Decoded, st.Skipped)
	}
	if want := []int{2, 5, 7}; !equalInts(st.BadSamples, want) {
		t.Errorf("BadSamples = %v, want %v", st.BadSamples, want)
	}
}

func TestQuotaExceededEpochError(t *testing.T) {
	ds := testDataset(10)
	for _, i := range []int{1, 3, 4, 8} {
		ds.Blobs[i] = nil
	}
	l, err := New(ds, Config{
		Format:     countFormat{},
		Batch:      2,
		Resilience: Resilience{MaxBadSamples: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	_, err = drainAll(t, it)
	if err == nil {
		t.Fatal("quota overflow did not fail the epoch")
	}
	var ee *EpochError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v (%T) does not unwrap to *EpochError", err, err)
	}
	if ee.Quota != 2 {
		t.Errorf("EpochError.Quota = %d, want 2", ee.Quota)
	}
	if want := []int{1, 3, 4}; !equalInts(ee.Indices, want) {
		t.Errorf("EpochError.Indices = %v, want %v (2 skipped + the fatal one)", ee.Indices, want)
	}
	var se *SampleError
	if !errors.As(err, &se) {
		t.Error("EpochError does not unwrap to a *SampleError")
	}
	if st := it.Stats(); st.Skipped != 2 {
		t.Errorf("Stats.Skipped = %d, want 2 (never beyond quota)", st.Skipped)
	}
}

// TestTransientRetriesRecover retries transient Blob/Label failures away.
// The window-of-one row is the tightest case for the head stage's own
// retry send: one sample in flight, one worker per stage, and the read
// worker sending every sample's retry into the one-run queue it reads.
func TestTransientRetriesRecover(t *testing.T) {
	tests := []struct {
		name        string
		blobFails   map[int]int
		labelFails  map[int]int
		wantRetried int
		// batch (default 4), prefetch and stages size the loader.
		batch, prefetch int
		stages          StageConfig
	}{
		{name: "blob", blobFails: map[int]int{2: 2, 6: 1}, wantRetried: 3},
		{name: "label", labelFails: map[int]int{4: 3}, wantRetried: 3},
		{name: "mixed", blobFails: map[int]int{1: 1}, labelFails: map[int]int{5: 2}, wantRetried: 3},
		{
			name:      "window-of-one",
			blobFails: map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, wantRetried: 8,
			batch: 1, prefetch: 1, stages: StageConfig{ReadWorkers: 1, DecodeWorkers: 1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ds := flaky(8)
			for i, n := range tc.blobFails {
				ds.blobFails[i] = n
			}
			for i, n := range tc.labelFails {
				ds.labelFails[i] = n
			}
			l, err := New(ds, Config{
				Format:     countFormat{},
				Batch:      cmp.Or(tc.batch, 4),
				Prefetch:   tc.prefetch,
				Stages:     tc.stages,
				Resilience: Resilience{MaxRetries: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			it := l.Epoch(0)
			got, err := drainAll(t, it)
			if err != nil {
				t.Fatalf("transient faults not retried away: %v", err)
			}
			if len(got) != 8 {
				t.Errorf("delivered %d samples, want all 8", len(got))
			}
			st := it.Stats()
			if st.Retried != tc.wantRetried {
				t.Errorf("Stats.Retried = %d, want %d", st.Retried, tc.wantRetried)
			}
		})
	}
}

func TestRetriesExhaustedSurfaceTransientError(t *testing.T) {
	ds := flaky(4)
	ds.blobFails[1] = 10 // beyond the retry budget
	l, err := New(ds, Config{
		Format:     countFormat{},
		Batch:      1,
		Resilience: Resilience{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	_, err = drainAll(t, it)
	if err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
	var se *SampleError
	if !errors.As(err, &se) || se.Index != 1 {
		t.Fatalf("error %v: want *SampleError for sample 1", err)
	}
	if !errors.Is(err, fault.Transient) {
		t.Error("surfaced error lost its Transient classification")
	}
	if st := it.Stats(); st.Retried != 2 {
		t.Errorf("Stats.Retried = %d, want 2 (the cap)", st.Retried)
	}
}

// TestBackoffOnVirtualClock pins the capped-exponential schedule: delays pass
// through the iterator clock's Sleeper, so the whole wait happens in virtual
// time and the test never sleeps on the wall clock.
func TestBackoffOnVirtualClock(t *testing.T) {
	tests := []struct {
		name      string
		pol       Resilience
		fails     int
		wantClock float64
	}{
		{"base-doubles", Resilience{MaxRetries: 3, BackoffBase: 0.01}, 3, 0.01 + 0.02 + 0.04},
		{"capped", Resilience{MaxRetries: 3, BackoffBase: 0.01, BackoffCap: 0.015}, 3, 0.01 + 0.015 + 0.015},
		{"zero-base", Resilience{MaxRetries: 3}, 2, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clock := &trace.VirtualClock{}
			ds := flaky(1)
			ds.blobFails[0] = tc.fails
			l, err := New(ds, Config{
				Format:     countFormat{},
				Batch:      1,
				Resilience: tc.pol,
				Clock:      clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			it := l.Epoch(0)
			if _, err := drainAll(t, it); err != nil {
				t.Fatalf("retries under backoff failed: %v", err)
			}
			if got := clock.Now(); !close6(got, tc.wantClock) {
				t.Errorf("virtual clock advanced %.6f s, want %.6f s", got, tc.wantClock)
			}
			if st := it.Stats(); st.Retried != tc.fails {
				t.Errorf("Stats.Retried = %d, want %d", st.Retried, tc.fails)
			}
		})
	}
}

func TestBackoffSchedule(t *testing.T) {
	r := Resilience{BackoffBase: 0.01, BackoffCap: 0.05}
	for attempt, want := range []float64{0.01, 0.02, 0.04, 0.05, 0.05} {
		if got := r.backoff(attempt); !close6(got, want) {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	uncapped := Resilience{BackoffBase: 0.01}
	if got := uncapped.backoff(4); !close6(got, 0.16) {
		t.Errorf("uncapped backoff(4) = %v, want 0.16", got)
	}
}

func close6(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
