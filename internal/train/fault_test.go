package train

// The acceptance suite of the robustness layer: a DeepCAM training run under
// an injected corruption + transient-error mix must finish with zero panics,
// bounded sample loss that matches the injector's ground truth exactly, and
// convergence close to the fault-free run. The injector seed (46) was chosen
// so the 40-sample corpus draws every interesting kind: flipped-byte
// corruption that decodes silently (realistic bit rot in FP payloads),
// truncation that fails decode, and a transient sample that recovers under
// retry.

import (
	"errors"
	"sort"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/core"
	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
)

func faultClimate() synthetic.ClimateConfig {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 32
	cfg.Width = 48
	return cfg
}

// faultMix is the ~1% corruption + transient-error mix of the acceptance
// criterion: 0.5% byte flips + 0.5% truncation + 1% transient I/O errors.
func faultMix() fault.Config {
	return fault.Config{Seed: 46, Corrupt: 0.005, Truncate: 0.005, Transient: 0.01, TransientFailures: 2}
}

// expectedBadSamples replays the injection pattern on a fresh injector and
// returns the indices whose faults are *detectable* (permanent read failure
// or failed decode). Byte flips deep in the FP payload decode silently and
// are invisible to any pipeline without checksums — those samples are
// expected to be delivered, not skipped.
func expectedBadSamples(t *testing.T, ds pipeline.Dataset, format codec.Format) []int {
	t.Helper()
	probe := fault.Wrap(ds, faultMix())
	var bad []int
	for i := 0; i < ds.Len(); i++ {
		blob, err := probe.Blob(i)
		if err != nil {
			if !errors.Is(err, fault.Transient) {
				bad = append(bad, i) // permanent loss
			}
			continue // transient: recovers under retry
		}
		cd, err := format.Open(blob)
		if err != nil {
			bad = append(bad, i)
			continue
		}
		if _, err := codec.Decode(cd); err != nil {
			bad = append(bad, i)
		}
	}
	return bad
}

// TestFaultedEpochAccountingExact drains one full epoch over the faulted
// dataset and checks Iterator.Stats against the injector's log with exact
// equality: every detectable bad sample skipped (and nothing else), every
// transient failure retried.
func TestFaultedEpochAccountingExact(t *testing.T) {
	const samples = 40
	ds, err := core.BuildClimateDataset(faultClimate(), samples, core.Plugin)
	if err != nil {
		t.Fatal(err)
	}
	format := core.FormatFor(core.DeepCAM, core.Plugin)
	wantBad := expectedBadSamples(t, ds, format)
	if len(wantBad) == 0 {
		t.Fatal("seed draws no detectable faults — the test corpus is dead")
	}

	inj := fault.Wrap(ds, faultMix())
	loader, err := pipeline.New(inj, pipeline.Config{
		Format: format,
		Batch:  2,
		Resilience: pipeline.Resilience{
			MaxRetries:    3,
			MaxBadSamples: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	it := loader.Epoch(0)
	n, err := it.Drain()
	if err != nil {
		t.Fatalf("faulted epoch failed within quota: %v", err)
	}
	st := it.Stats()

	if want := samples - len(wantBad); n != want || st.Decoded != want {
		t.Errorf("decoded %d (stats %d), want %d", n, st.Decoded, want)
	}
	gotBad := append([]int(nil), st.BadSamples...)
	sort.Ints(gotBad)
	if !sameInts(gotBad, wantBad) {
		t.Errorf("BadSamples = %v, want %v", gotBad, wantBad)
	}
	if st.Skipped != len(wantBad) {
		t.Errorf("Skipped = %d, want %d", st.Skipped, len(wantBad))
	}
	transientEvents, _ := inj.Summary().Of(fault.TransientIO)
	if transientEvents == 0 {
		t.Error("no transient events injected — mix has no flaky component")
	}
	if st.Retried != transientEvents {
		t.Errorf("Retried = %d, want %d (one retry per logged transient failure)", st.Retried, transientEvents)
	}
}

// TestDeepCAMConvergesUnderFaultMix is the end-to-end acceptance run: real
// training under the fault mix, with skipped samples recorded per epoch and
// the final loss within tolerance of the fault-free run.
func TestDeepCAMConvergesUnderFaultMix(t *testing.T) {
	if testing.Short() {
		t.Skip("full DeepCAM training run")
	}
	clim := faultClimate()
	base := Config{
		Encoded: true,
		Samples: 40,
		Batch:   2,
		Steps:   40,
		Seed:    5,
		LR:      0.01,
		Warmup:  4,
	}
	clean, err := DeepCAMRun(clim, base)
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}

	faulted := base
	mix := faultMix()
	faulted.Faults = &mix
	faulted.Resilience = pipeline.Resilience{
		MaxRetries:    3,
		BackoffBase:   0.0005,
		BackoffCap:    0.002,
		MaxBadSamples: 4,
	}
	res, err := DeepCAMRun(clim, faulted)
	if err != nil {
		t.Fatalf("faulted run failed (want graceful degradation): %v", err)
	}
	if len(res.Losses) != base.Steps {
		t.Fatalf("faulted run took %d steps, want %d", len(res.Losses), base.Steps)
	}
	if len(res.Injections) == 0 {
		t.Fatal("no faults injected — acceptance run is vacuous")
	}

	var retried int
	for e, st := range res.Epochs {
		if st.Skipped > faulted.Resilience.MaxBadSamples {
			t.Errorf("epoch %d skipped %d samples, above quota %d", e, st.Skipped, faulted.Resilience.MaxBadSamples)
		}
		retried += st.Retried
	}
	if res.Skipped() == 0 {
		t.Error("no samples skipped — detectable corruption did not exercise the skip path")
	}
	var summary fault.Summary
	for _, injEv := range res.Injections {
		summary.Events[injEv.Kind]++
	}
	transientEvents, _ := summary.Of(fault.TransientIO)
	if retried != transientEvents {
		t.Errorf("retried %d times for %d transient failures", retried, transientEvents)
	}

	cleanLoss := tail5(clean.Losses)
	faultLoss := tail5(res.Losses)
	if diff := (faultLoss - cleanLoss) / cleanLoss; diff > 0.5 || diff < -0.5 {
		t.Errorf("final loss %.4f drifted %.0f%% from fault-free %.4f (tolerance 50%%)",
			faultLoss, 100*diff, cleanLoss)
	}
}

// TestDeepCAMQuotaExceededFailsLoudly pins the loud-failure half of the
// policy: past MaxBadSamples the run errors with an *EpochError naming the
// offending samples instead of silently training on a gutted epoch.
func TestDeepCAMQuotaExceededFailsLoudly(t *testing.T) {
	clim := faultClimate()
	cfg := Config{
		Encoded: true,
		Samples: 40,
		Batch:   2,
		Steps:   40,
		Seed:    5,
		LR:      0.01,
		Warmup:  4,
		Faults:  &fault.Config{Seed: 46, Truncate: 0.2, Lost: 0.1},
		Resilience: pipeline.Resilience{
			MaxRetries:    2,
			MaxBadSamples: 1,
		},
	}
	_, err := DeepCAMRun(clim, cfg)
	if err == nil {
		t.Fatal("run with a gutted dataset and quota 1 did not fail")
	}
	var ee *pipeline.EpochError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v (%T) does not unwrap to *pipeline.EpochError", err, err)
	}
	if len(ee.Indices) < 2 {
		t.Errorf("EpochError names %v, want at least the skipped and the fatal sample", ee.Indices)
	}
}

func tail5(losses []float64) float64 {
	n := len(losses)
	k := 5
	if n < k {
		k = n
	}
	sum := 0.0
	for _, l := range losses[n-k:] {
		sum += l
	}
	return sum / float64(k)
}

func sameInts(a, b []int) bool {
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

// Skipped totals the skipped-sample count across the run's epochs.
func (r *Result) Skipped() int {
	n := 0
	for _, e := range r.Epochs {
		n += e.Skipped
	}
	return n
}
