package pipeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"scipp/internal/tensor"
)

// TestRunLenRule pins the run-length derivation: twice the widest pool's
// worth of runs fit in the prefetch window, clamped to [1, min(batch, 8)].
func TestRunLenRule(t *testing.T) {
	cases := []struct {
		name                    string
		prefetch, batch, widest int
		want                    int
	}{
		{"weather_ragged defaults", 64, 32, 4, 8},
		{"batch-4 loaders stay per sample", 8, 4, 4, 1},
		{"window too small for one run per worker pair", 15, 8, 4, 1},
		{"exact fit", 16, 8, 4, 2},
		{"rounds down", 31, 16, 4, 3},
		{"capped at eight", 256, 128, 2, 8},
		{"capped at the batch", 64, 3, 2, 3},
		{"single-sample batches", 64, 1, 2, 1},
		{"wide pool", 64, 32, 32, 1},
		{"zero widest counts as one", 8, 8, 0, 4},
	}
	for _, c := range cases {
		if got := runLen(c.prefetch, c.batch, c.widest); got != c.want {
			t.Errorf("%s: runLen(%d, %d, %d) = %d, want %d", c.name, c.prefetch, c.batch, c.widest, got, c.want)
		}
	}
}

// TestLoaderRunLen checks which pools the loader's derivation counts: the
// augment pool only when an augment stage runs.
func TestLoaderRunLen(t *testing.T) {
	mk := func(cfg Config) int {
		t.Helper()
		cfg.Format = countFormat{}
		l, err := New(testDataset(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l.runLen()
	}
	stages := StageConfig{ReadWorkers: 2, DecodeWorkers: 4, AugmentWorkers: 16}
	if got := mk(Config{Batch: 32, Stages: stages}); got != 8 {
		t.Errorf("unaugmented runLen = %d, want 8 (augment pool ignored)", got)
	}
	identity := func(x *tensor.Tensor) (*tensor.Tensor, error) { return x, nil }
	aug := Config{Batch: 32, Stages: stages, Augment: identity}
	if got := mk(aug); got != 2 {
		t.Errorf("augmented runLen = %d, want 2", got)
	}
}

// runEpochs drains epochs of a shuffled, cached, retrying loader over a
// flaky dataset and returns its run length, delivered indices, first
// element per sample, and per-epoch retry counts.
func runEpochs(t *testing.T, stages StageConfig, epochs int) (int, []int, []float32, []int) {
	t.Helper()
	const n = 200
	ds := flaky(n)
	for i := 0; i < n; i += 17 {
		ds.blobFails[i] = 1 + i%2
	}
	for i := 5; i < n; i += 23 {
		ds.labelFails[i] = 1
	}
	l, err := New(ds, Config{
		Format: countFormat{}, Batch: 32, Shuffle: true, Seed: 3, Stages: stages,
		Cache:      CacheConfig{HostMemBytes: 1 << 20},
		Resilience: Resilience{MaxRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	var val []float32
	var retried []int
	for e := 0; e < epochs; e++ {
		it := l.Epoch(e)
		i, v := epochValues(t, it)
		idx, val = append(idx, i...), append(val, v...)
		retried = append(retried, it.Stats().Retried)
	}
	return l.runLen(), idx, val, retried
}

// TestRunEpochMatchesPerSampleEpoch is the equivalence lock of the run
// machinery: the same loader moving runs of eight delivers the same order,
// the same bytes and the same retry accounting as at one sample per hop.
func TestRunEpochMatchesPerSampleEpoch(t *testing.T) {
	rRuns, idxRuns, valRuns, retRuns := runEpochs(t, StageConfig{ReadWorkers: 2, DecodeWorkers: 4}, 3)
	rOne, idxOne, valOne, retOne := runEpochs(t, StageConfig{ReadWorkers: 2, DecodeWorkers: 32}, 3)
	if rRuns != 8 || rOne != 1 {
		t.Fatalf("run lengths %d and %d, want 8 and 1: the test compares nothing", rRuns, rOne)
	}
	if !reflect.DeepEqual(idxRuns, idxOne) || !reflect.DeepEqual(valRuns, valOne) {
		t.Fatal("runs of eight changed the delivered epoch")
	}
	if !reflect.DeepEqual(retRuns, retOne) || retRuns[0] == 0 {
		t.Fatalf("retries per epoch %v with runs, %v without (want equal, nonzero)", retRuns, retOne)
	}
}

// TestEpochAllocs pins the steady-state allocations of a small cached
// epoch, in count and in bytes. Runs come from loader-owned freelists, and
// the epoch machinery — schedule buffer, reorder ring, queues, stage
// structs, worker bodies, supervisor — is the loader's, reset rather than
// rebuilt (see epochState), and so is its wall clock, re-anchored in
// place. So an epoch allocates its Iterator and its stop channel, and the
// test format two small objects per sample (its decoder and an output
// shape): 2 + 2*16. The count bound is
// the measured count. The byte bound keeps the garbage a warm epoch leaves
// from creeping back: it measured 0.8-0.9 KB (1.2 KB under -race) against
// 4.3 KB for the machinery alone when each epoch rebuilt it. The pools are
// sized explicitly so neither depends on the host's core count.
func TestEpochAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count is measured over many epochs")
	}
	l, err := New(testDataset(16), Config{
		Format: countFormat{}, Batch: 4,
		Stages: StageConfig{ReadWorkers: 2, DecodeWorkers: 4},
		Cache:  CacheConfig{HostMemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	drain := func() {
		n, err := l.Epoch(epoch).Drain()
		if err != nil || n != 16 {
			t.Fatalf("epoch %d: %d samples, %v", epoch, n, err)
		}
		epoch++
	}
	// The cold epoch fills the cache and the freelists; the next few let
	// the loader build the second epoch state it alternates with.
	for range 4 {
		drain()
	}
	const maxAllocs, maxBytes = 34, 1536
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(50, drain) // 51 epochs: one warm-up, then 50
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 51
	t.Logf("%.0f allocations, %d bytes per epoch", got, bytes)
	if got > maxAllocs {
		t.Fatalf("a 16-sample cached epoch allocates %.0f times, want <= %d", got, maxAllocs)
	}
	if bytes > maxBytes {
		t.Fatalf("a 16-sample cached epoch allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}

// TestEpochStartsOnlyStageWorkers pins the consumer-driven epoch, the
// loader's twin of dataserve's TestTenantEpochStartsNoGoroutines: Epoch and
// Next admit samples and restore schedule order on the caller's goroutine,
// and workers judge their own failures, so a live epoch runs its stage
// workers and nothing else — and none of them outlives Drain.
func TestEpochStartsOnlyStageWorkers(t *testing.T) {
	const n = 64
	stages := StageConfig{ReadWorkers: 2, DecodeWorkers: 4}
	l, err := New(testDataset(n), Config{Format: countFormat{}, Batch: 4, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	it := l.Epoch(0)
	if got, want := runtime.NumGoroutine()-before, stages.ReadWorkers+stages.DecodeWorkers; got != want {
		it.Close()
		t.Fatalf("a live epoch runs %d goroutines, want its %d stage workers", got, want)
	}
	if got, err := it.Drain(); err != nil || got != n {
		t.Fatalf("drained %d samples, %v; want %d", got, err, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d epoch goroutines still running 5 s after Drain returned", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// a few milliseconds (or after a second), so goroutines of earlier tests
// that are still exiting do not skew a count taken against it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for start, still := time.Now(), 0; still < 5 && time.Since(start) < time.Second; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestPaddedEpochAllocs is TestEpochAllocs drained through NextPadded: the
// PaddedBatch structs, their slices and their shape headers are recycled by
// the slab pool like Batch's, so in the steady state padding a batch
// allocates nothing and a padded epoch allocates no more than a plain one.
func TestPaddedEpochAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count is measured over many epochs")
	}
	l, err := New(testDataset(16), Config{
		Format: countFormat{}, Batch: 4,
		Stages: StageConfig{ReadWorkers: 2, DecodeWorkers: 4},
		Cache:  CacheConfig{HostMemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	plain := func() {
		if n, err := l.Epoch(epoch).Drain(); err != nil || n != 16 {
			t.Fatalf("epoch %d: %d samples, %v", epoch, n, err)
		}
		epoch++
	}
	padded := func() {
		it, n := l.Epoch(epoch), 0
		for {
			pb, err := it.NextPadded()
			if err != nil {
				t.Fatal(err)
			}
			if pb == nil {
				break
			}
			n += pb.Size()
			pb.Release()
		}
		if n != 16 {
			t.Fatalf("padded epoch %d: %d samples", epoch, n)
		}
		epoch++
	}
	plain()  // the cold epoch fills the cache and the freelists
	padded() // and the padded freelist
	want := testing.AllocsPerRun(50, plain)
	got := testing.AllocsPerRun(50, padded)
	t.Logf("%.0f allocations per padded epoch, %.0f per plain epoch", got, want)
	if got > want {
		t.Fatalf("a 16-sample padded epoch allocates %.0f times, a plain one %.0f: padding allocates", got, want)
	}
}
