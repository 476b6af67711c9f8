package train

import (
	"bytes"
	"testing"

	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/trace"
)

func TestCosmoFlowCheckpointResumeBitIdentical(t *testing.T) {
	cosmo := tinyCosmo()
	full := Config{Samples: 8, Batch: 4, Epochs: 4, Seed: 9, LR: 0.01, Warmup: 2,
		CheckpointEvery: 2, Checkpoints: &CheckpointLog{}}
	a, err := CosmoFlowRun(cosmo, full)
	if err != nil {
		t.Fatal(err)
	}
	if full.Checkpoints.Len() != 2 {
		t.Fatalf("expected checkpoints after epochs 2 and 4, got %d", full.Checkpoints.Len())
	}
	cp, ok := full.Checkpoints.At(2)
	if !ok {
		t.Fatal("no epoch-2 checkpoint")
	}
	if cp.Meta.Step != 4 || cp.Meta.App != "cosmoflow" || cp.Meta.Seed != 9 {
		t.Fatalf("checkpoint meta %+v", cp.Meta)
	}

	res := full
	res.Checkpoints = &CheckpointLog{}
	res.ResumeFrom = &cp
	b, err := CosmoFlowRun(cosmo, res)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Losses[2:]
	if len(b.Losses) != len(want) {
		t.Fatalf("resumed run produced %d epoch losses, want %d", len(b.Losses), len(want))
	}
	for i := range want {
		if b.Losses[i] != want[i] {
			t.Errorf("epoch %d: resumed loss %v != uninterrupted %v", i+2, b.Losses[i], want[i])
		}
	}
	// The resumed run's final snapshot must be byte-identical to the
	// uninterrupted run's: weights, optimizer state and counters all agree.
	fa, _ := full.Checkpoints.At(4)
	fb, ok := res.Checkpoints.At(4)
	if !ok {
		t.Fatal("resumed run saved no epoch-4 checkpoint")
	}
	if !bytes.Equal(fa.Data, fb.Data) {
		t.Error("final checkpoints differ between resumed and uninterrupted runs")
	}
}

func TestDeepCAMCheckpointResumeBitIdentical(t *testing.T) {
	clim := tinyClimate()
	// 8 samples / batch 2 = 4 steps per epoch; 8 steps = 2 full epochs.
	full := Config{Samples: 8, Batch: 2, Steps: 8, Seed: 4, LR: 0.05, Warmup: 2,
		CheckpointEvery: 1, Checkpoints: &CheckpointLog{}}
	a, err := DeepCAMRun(clim, full)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := full.Checkpoints.At(1)
	if !ok {
		t.Fatal("no epoch-1 checkpoint")
	}
	if cp.Meta.Step != 4 || cp.Meta.App != "deepcam" {
		t.Fatalf("checkpoint meta %+v", cp.Meta)
	}
	res := full
	res.Checkpoints = &CheckpointLog{}
	res.ResumeFrom = &cp
	b, err := DeepCAMRun(clim, res)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Losses[4:]
	if len(b.Losses) != len(want) {
		t.Fatalf("resumed run produced %d step losses, want %d", len(b.Losses), len(want))
	}
	for i := range want {
		if b.Losses[i] != want[i] {
			t.Errorf("step %d: resumed loss %v != uninterrupted %v", i+4, b.Losses[i], want[i])
		}
	}
}

func TestCheckpointResumeValidation(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 4, Batch: 2, Epochs: 1, Seed: 3, LR: 0.01,
		CheckpointEvery: 1, Checkpoints: &CheckpointLog{}}
	if _, err := CosmoFlowRun(cosmo, cfg); err != nil {
		t.Fatal(err)
	}
	cp, _ := cfg.Checkpoints.Latest()

	wrongSeed := cfg
	wrongSeed.Seed = 99
	wrongSeed.Epochs = 2
	wrongSeed.ResumeFrom = &cp
	if _, err := CosmoFlowRun(cosmo, wrongSeed); err == nil {
		t.Error("resume with a different seed accepted")
	}
	wrongApp := Config{Samples: 4, Batch: 2, Steps: 2, Seed: 3, LR: 0.01, ResumeFrom: &cp}
	if _, err := DeepCAMRun(tinyClimate(), wrongApp); err == nil {
		t.Error("cosmoflow checkpoint accepted by a deepcam run")
	}
	noLog := cfg
	noLog.Checkpoints = nil
	if _, err := CosmoFlowRun(cosmo, noLog); err == nil {
		t.Error("CheckpointEvery without a log accepted")
	}
}

func TestElasticNoFaultsConverges(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 4, Seed: 7, LR: 0.01, Warmup: 1}
	res, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 4 || len(res.StepLosses) != 8 {
		t.Fatalf("got %d epoch / %d step losses", len(res.Losses), len(res.StepLosses))
	}
	if res.Losses[3] >= res.Losses[0] {
		t.Errorf("elastic loss did not decrease: %v", res.Losses)
	}
	if len(res.Evictions) != 0 || res.Generations != 0 {
		t.Errorf("fault-free run recorded evictions: %+v", res.Evictions)
	}
	if len(res.Alive) != 2 {
		t.Errorf("alive = %v", res.Alive)
	}
}

// TestElasticCrashAcceptance is the issue's acceptance scenario: a seeded
// fault kills rank 1 at a chosen allreduce step; the surviving ranks finish
// the epoch on a rebuilt ring, the Result's eviction record reconciles
// exactly against the injector log, and a run resumed from an epoch-boundary
// checkpoint matches the uninterrupted (faulted) run bit for bit.
func TestElasticCrashAcceptance(t *testing.T) {
	cosmo := tinyCosmo()
	vc := &trace.VirtualClock{}
	cfg := Config{Samples: 8, Batch: 4, Epochs: 3, Seed: 13, LR: 0.01, Warmup: 1,
		CheckpointEvery: 1, Checkpoints: &CheckpointLog{}}
	ecfg := ElasticConfig{
		Ranks:      3,
		Clock:      vc,
		RankFaults: &fault.RankConfig{CrashAt: map[int]int{1: 1}},
	}
	a, err := ElasticCosmoFlow(cosmo, cfg, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	// Survivors finished every epoch: 2 steps per epoch, 3 epochs.
	if len(a.StepLosses) != 6 || len(a.Losses) != 3 {
		t.Fatalf("got %d step / %d epoch losses", len(a.StepLosses), len(a.Losses))
	}
	if got := a.Alive; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("alive = %v, want [0 2]", got)
	}
	if a.Generations != 1 {
		t.Errorf("generation = %d, want 1", a.Generations)
	}
	// Eviction record reconciles exactly against the injector log.
	if len(a.Evictions) != 1 || len(a.RankLog) != 1 {
		t.Fatalf("evictions %+v, rank log %+v", a.Evictions, a.RankLog)
	}
	ev, inj := a.Evictions[0], a.RankLog[0]
	if ev.Rank != 1 || ev.Reason != "crash" || ev.Gen != 0 {
		t.Errorf("eviction %+v", ev)
	}
	if inj.Kind != fault.CrashRank || inj.Rank != 1 || inj.Step != 1 {
		t.Errorf("injection %+v", inj)
	}
	if a.EvictionSteps[0] != inj.Step {
		t.Errorf("eviction absorbed at step %d, injected at step %d", a.EvictionSteps[0], inj.Step)
	}

	// Resume from the epoch-2 checkpoint: rank 1 starts down, and the final
	// losses and final checkpoint bytes match the uninterrupted run exactly.
	cp, ok := cfg.Checkpoints.At(2)
	if !ok {
		t.Fatal("no epoch-2 checkpoint")
	}
	if len(cp.Meta.Evicted) != 1 || cp.Meta.Evicted[0] != 1 {
		t.Fatalf("checkpoint meta carries evicted %v, want [1]", cp.Meta.Evicted)
	}
	res := cfg
	res.Checkpoints = &CheckpointLog{}
	res.ResumeFrom = &cp
	b, err := ElasticCosmoFlow(cosmo, res, ElasticConfig{Ranks: 3, Clock: &trace.VirtualClock{},
		RankFaults: &fault.RankConfig{CrashAt: map[int]int{1: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Evictions) != 0 || len(b.RankLog) != 0 {
		t.Errorf("resumed run re-injected faults: %+v %+v", b.Evictions, b.RankLog)
	}
	if got := b.Alive; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("resumed alive = %v, want [0 2]", got)
	}
	if len(b.Losses) != 1 || b.Losses[0] != a.Losses[2] {
		t.Errorf("resumed final loss %v != uninterrupted %v (bit-for-bit)", b.Losses, a.Losses[2])
	}
	for i, sl := range b.StepLosses {
		if sl != a.StepLosses[4+i] {
			t.Errorf("resumed step loss %d: %v != %v", i, sl, a.StepLosses[4+i])
		}
	}
	fa, _ := cfg.Checkpoints.At(3)
	fb, ok := res.Checkpoints.At(3)
	if !ok {
		t.Fatal("resumed run saved no final checkpoint")
	}
	if !bytes.Equal(fa.Data, fb.Data) {
		t.Error("final checkpoints differ between resumed and uninterrupted runs")
	}
}

func TestElasticCrashReinjectedAfterResume(t *testing.T) {
	// The crash lands AFTER the checkpoint epoch: the resumed run must
	// re-inject it at the same step and converge to the same trajectory.
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 3, Seed: 21, LR: 0.01, Warmup: 1,
		CheckpointEvery: 1, Checkpoints: &CheckpointLog{}}
	faults := func() *fault.RankConfig { return &fault.RankConfig{CrashAt: map[int]int{2: 3}} }
	a, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 3, RankFaults: faults()})
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := cfg.Checkpoints.At(1) // before the step-3 crash
	if !ok {
		t.Fatal("no epoch-1 checkpoint")
	}
	if len(cp.Meta.Evicted) != 0 {
		t.Fatalf("pre-crash checkpoint lists evicted %v", cp.Meta.Evicted)
	}
	res := cfg
	res.Checkpoints = &CheckpointLog{}
	res.ResumeFrom = &cp
	b, err := ElasticCosmoFlow(cosmo, res, ElasticConfig{Ranks: 3, RankFaults: faults()})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.RankLog) != 1 || b.RankLog[0].Step != 3 || b.RankLog[0].Rank != 2 {
		t.Fatalf("resumed run injected %+v, want crash of rank 2 at step 3", b.RankLog)
	}
	if len(b.Evictions) != 1 || b.Evictions[0].Rank != 2 {
		t.Fatalf("resumed evictions %+v", b.Evictions)
	}
	for i, l := range b.Losses {
		if l != a.Losses[1+i] {
			t.Errorf("epoch %d: resumed loss %v != %v", 1+i, l, a.Losses[1+i])
		}
	}
}

func TestElasticHangEvictedByDeadline(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 2, Seed: 17, LR: 0.01, Warmup: 1}
	// The deadline must comfortably exceed inter-rank arrival skew (uneven
	// shards mean unequal compute time per step), especially under -race.
	ecfg := ElasticConfig{
		Ranks:      3,
		Clock:      trace.NewWallClock(),
		Timeout:    0.5,
		RankFaults: &fault.RankConfig{HangAt: map[int]int{2: 1}},
	}
	res, err := ElasticCosmoFlow(cosmo, cfg, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions %+v", res.Evictions)
	}
	ev := res.Evictions[0]
	if ev.Rank != 2 || ev.Reason != "timeout" {
		t.Errorf("eviction %+v, want rank 2 by timeout", ev)
	}
	if len(res.RankLog) != 1 || res.RankLog[0].Kind != fault.HangRank || res.RankLog[0].Step != 1 {
		t.Errorf("rank log %+v", res.RankLog)
	}
	if res.EvictionSteps[0] != 1 {
		t.Errorf("eviction absorbed at step %d, want 1", res.EvictionSteps[0])
	}
	if got := res.Alive; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("alive = %v", got)
	}
	if len(res.Losses) != 2 {
		t.Errorf("survivors did not finish both epochs: %v", res.Losses)
	}
}

func TestElasticSlowRankFlagsStraggler(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 1, Seed: 19, LR: 0.01, Warmup: 1}
	// Stall rank 1 for 500ms at the final step (step 1, the first arrival
	// with a measurable step time): its EWMA lands far above the fastest
	// rank's even with race-detector overhead, and the run ends flagged.
	ecfg := ElasticConfig{
		Ranks:      2,
		Clock:      trace.NewWallClock(),
		SlowFactor: 3,
		RankFaults: &fault.RankConfig{SlowAt: map[int]int{1: 1}, SlowSeconds: 0.5},
	}
	res, err := ElasticCosmoFlow(cosmo, cfg, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 0 {
		t.Fatalf("slow rank was evicted: %+v", res.Evictions)
	}
	if len(res.RankLog) != 1 || res.RankLog[0].Kind != fault.SlowRank {
		t.Fatalf("rank log %+v", res.RankLog)
	}
	found := false
	for _, r := range res.Stragglers {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("rank 1 not flagged: stragglers = %v", res.Stragglers)
	}
}

func TestElasticDeepCAMSurvivesCrash(t *testing.T) {
	clim := tinyClimate()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 2, Seed: 23, LR: 0.05, Warmup: 1}
	res, err := ElasticDeepCAM(clim, cfg, ElasticConfig{
		Ranks:      2,
		RankFaults: &fault.RankConfig{CrashAt: map[int]int{0: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Rank != 0 {
		t.Fatalf("evictions %+v", res.Evictions)
	}
	if got := res.Alive; len(got) != 1 || got[0] != 1 {
		t.Errorf("alive = %v, want [1]", got)
	}
	if len(res.Losses) != 2 {
		t.Errorf("survivor did not finish: %v", res.Losses)
	}
}

func TestElasticValidation(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 4, Batch: 2, Epochs: 1, Seed: 1, LR: 0.01}
	if _, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	// A batch smaller than the live rank count cannot shard.
	if _, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 3}); err == nil {
		t.Error("unshardable batch accepted")
	}
}

// TestEngineBoundsAndObs: a data-parallel run honours whichever of Steps
// and Epochs it reaches first, checkpoints only at true epoch boundaries,
// and is wired to Config.Obs like a one-replica run.
func TestEngineBoundsAndObs(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 3, Steps: 5, Seed: 2, LR: 0.01, Warmup: 1,
		Obs: reg, Clock: &trace.VirtualClock{}, CheckpointEvery: 1, Checkpoints: &CheckpointLog{}}
	res, err := ElasticCosmoFlow(tinyCosmo(), cfg, ElasticConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two steps per epoch: the step bound cuts the third epoch after one.
	if len(res.Losses) != 5 || len(res.StepLosses) != 5 || len(res.Epochs) != 3 {
		t.Fatalf("got %d losses, %d step losses, %d epochs; want 5, 5, 3",
			len(res.Losses), len(res.StepLosses), len(res.Epochs))
	}
	if n := cfg.Checkpoints.Len(); n != 2 {
		t.Errorf("%d checkpoints, want 2 (the cut epoch takes none)", n)
	}
	// The cut epoch may still be decoding prefetched samples while its
	// accounting is read, so only the full epochs are compared exactly.
	var decoded int64
	for e, st := range res.Epochs {
		d := st.Metrics.Counter("pipeline.samples.decoded")
		if d == 0 || (e < 2 && int64(st.Decoded) != d) {
			t.Errorf("epoch %d: Decoded %d, metric delta %d", e, st.Decoded, d)
		}
		decoded += d
	}
	if got := res.Metrics.Counter("pipeline.samples.decoded"); got < decoded {
		t.Errorf("final snapshot decoded %d, epoch deltas sum to %d", got, decoded)
	}
	if g := res.Metrics.Gauge("dist.ring_size"); g.Value != 2 {
		t.Errorf("dist.ring_size = %v, want 2", g.Value)
	}

	none, err := CosmoFlowRun(tinyCosmo(), Config{Samples: 4, Batch: 2, Seed: 1, LR: 0.01})
	if err != nil || len(none.Losses) != 0 || len(none.Epochs) != 0 {
		t.Errorf("a run with neither bound set trained: %+v, %v", none, err)
	}
}

// Latest returns the most recent snapshot.
func (l *CheckpointLog) Latest() (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.cps) == 0 {
		return Checkpoint{}, false
	}
	return l.cps[len(l.cps)-1], true
}

// At returns the snapshot taken after `epoch` completed epochs.
func (l *CheckpointLog) At(epoch int) (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, cp := range l.cps {
		if cp.Meta.Epoch == epoch {
			return cp, true
		}
	}
	return Checkpoint{}, false
}

// All returns every snapshot in epoch order.
func (l *CheckpointLog) All() []Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Checkpoint(nil), l.cps...)
}
