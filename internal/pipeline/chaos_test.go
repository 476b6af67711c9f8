package pipeline

import (
	"reflect"
	"testing"

	"scipp/internal/fault"
)

// chaosRun is everything one seeded chaos run observes: delivered batches,
// iterator accounting, and both injector logs. Two runs with the same seeds
// must produce identical chaosRuns, byte for byte.
type chaosRun struct {
	Indices  []int
	Values   []float32
	Stats    []Stats
	StageLog []fault.Injection
	CacheLog []fault.Injection
}

// runChaos executes epochs of a fully-faulted cached loader: stage panics,
// stage stalls, and cache bit rot, all from fixed seeds.
func runChaos(t *testing.T, n, epochs int) chaosRun {
	t.Helper()
	return runChaosBatch(t, n, epochs, 4, StageConfig{})
}

// chaosStages pins the pool widths, so the run length a batch size selects
// does not depend on the host's core count.
var chaosStages = StageConfig{ReadWorkers: 2, DecodeWorkers: 4}

// runChaosBatch is runChaos at a chosen batch size and pool widths: Batch 4
// keeps the DAG at one sample per hop, Batch 32 over chaosStages moves runs
// of eight.
func runChaosBatch(t *testing.T, n, epochs, batch int, stages StageConfig) chaosRun {
	t.Helper()
	in := fault.WrapStage(testDataset(n), fault.StageFaultConfig{Seed: 5, Panic: 0.1, Stall: 0.05})
	defer in.Release()
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 6, BitRot: 0.1})
	l, err := New(in, Config{
		Format: countFormat{}, Batch: batch, Stages: stages,
		Cache:      CacheConfig{HostMemBytes: 1 << 20},
		Resilience: Resilience{MaxRetries: 2},
		Supervise:  SupervisorConfig{MaxRestarts: 64, StallDeadline: 0.03, StallRestart: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Cache().SetTamper(ci)
	var run chaosRun
	for e := 0; e < epochs; e++ {
		it := l.Epoch(e)
		i, v := epochValues(t, it)
		run.Indices = append(run.Indices, i...)
		run.Values = append(run.Values, v...)
		run.Stats = append(run.Stats, it.Stats())
	}
	run.StageLog = in.Log()
	run.CacheLog = ci.Log()
	return run
}

// TestChaosDeterministicAcrossRuns pins the reproducibility contract of the
// whole self-healing stack: two runs with the same fault seeds produce
// byte-identical injector logs, per-epoch Stats, and batch contents — panic
// recovery, stall abandonment, and quarantine re-decodes included.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	a := runChaos(t, 48, 3)
	b := runChaos(t, 48, 3)
	if !reflect.DeepEqual(a.StageLog, b.StageLog) {
		t.Fatalf("stage injector logs diverged:\n%v\n%v", a.StageLog, b.StageLog)
	}
	if !reflect.DeepEqual(a.CacheLog, b.CacheLog) {
		t.Fatalf("cache injector logs diverged:\n%v\n%v", a.CacheLog, b.CacheLog)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("iterator stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Indices, b.Indices) || !reflect.DeepEqual(a.Values, b.Values) {
		t.Fatal("batch contents diverged between same-seed runs")
	}
}

// TestChaosMatchesCleanRun pins recovery transparency: the fully-faulted run
// delivers batches bit-identical to a fault-free run of the same loader
// configuration.
func TestChaosMatchesCleanRun(t *testing.T) {
	const n, epochs = 48, 3
	l, err := New(testDataset(n), Config{
		Format: countFormat{}, Batch: 4,
		Cache: CacheConfig{HostMemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantIdx []int
	var wantVal []float32
	for e := 0; e < epochs; e++ {
		i, v := epochValues(t, l.Epoch(e))
		wantIdx, wantVal = append(wantIdx, i...), append(wantVal, v...)
	}
	got := runChaos(t, n, epochs)
	if !reflect.DeepEqual(got.Indices, wantIdx) || !reflect.DeepEqual(got.Values, wantVal) {
		t.Fatal("chaos run diverged from fault-free run")
	}
	if len(got.StageLog) == 0 || len(got.CacheLog) == 0 {
		t.Fatalf("chaos run injected nothing (stage %d, cache %d events)", len(got.StageLog), len(got.CacheLog))
	}
}

// TestChaosRunsMatchCleanRun is TestChaosMatchesCleanRun at Batch 32, where
// the DAG moves runs of eight: panics and stalls inside a run, and bit-rot
// re-decodes, still deliver the fault-free run's batches bit for bit.
func TestChaosRunsMatchCleanRun(t *testing.T) {
	const n, epochs, batch = 256, 3, 32
	l, err := New(testDataset(n), Config{
		Format: countFormat{}, Batch: batch, Stages: chaosStages,
		Cache: CacheConfig{HostMemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := l.runLen(); r != 8 {
		t.Fatalf("runLen = %d, want 8: the test would not exercise runs", r)
	}
	var wantIdx []int
	var wantVal []float32
	for e := 0; e < epochs; e++ {
		i, v := epochValues(t, l.Epoch(e))
		wantIdx, wantVal = append(wantIdx, i...), append(wantVal, v...)
	}
	got := runChaosBatch(t, n, epochs, batch, chaosStages)
	if !reflect.DeepEqual(got.Indices, wantIdx) || !reflect.DeepEqual(got.Values, wantVal) {
		t.Fatal("chaos run with runs of eight diverged from fault-free run")
	}
	if len(got.StageLog) == 0 || len(got.CacheLog) == 0 {
		t.Fatalf("chaos run injected nothing (stage %d, cache %d events)", len(got.StageLog), len(got.CacheLog))
	}
}
