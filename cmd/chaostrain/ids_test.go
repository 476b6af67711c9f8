// Package chaostrain holds no command: cmd/chaostrain became `cmd/sweep -suite train`.
// This file re-runs that suite through the shared drivers under the test IDs
// the retired command's tests had, because the test floor names them; the
// suite's own tests live in internal/sweep/suites.
package chaostrain

import (
	"testing"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func params(app string) suites.Params {
	return suites.Params{App: app, Ranks: 3, Samples: 12, Batch: 4, Epochs: 2, Seed: 1, CrashStep: 1, CheckpointEvery: 1}
}

// The wall-clock stall scenarios (hang, slow) are skipped, as they always
// were here; the train package's elastic tests cover them.
func TestSweepScenarios(t *testing.T) {
	sweep.Cells(t, append(suites.Train.Cells(params("deepcam"))[:2:2], suites.Train.Cells(params("cosmoflow"))[:2]...))
}

// The retired table fed synthetic eviction records to the reconciler; the
// same five cases are here as corruptions of a genuine crash run and, for
// the slow-rank injection that must evict nobody, a genuine slow run.
func TestReconcileDetectsMismatch(t *testing.T) {
	sweep.Mutations(t, suites.Train.Cell(params("cosmoflow"), "cosmoflow/crash"),
		sweep.Mutation{Name: "matched", Mutate: func(sweep.Obs) {}, Accept: true},
		sweep.Bump("missing eviction", -1, "evictions", "evictions.matched"),
		sweep.Bump("wrong step", -1, "evictions.matched"),
		sweep.Bump("spurious eviction", 1, "evictions"))
	t.Run("slow injections ignored", func(t *testing.T) {
		res, err := sweep.NewRunner().Run(suites.Train.Cell(params("cosmoflow"), "cosmoflow/slow"))
		if err != nil || res.Obs["inj.slow"] != 1 || res.Obs["evictions"] != 0 {
			t.Fatalf("err %v, obs %v", err, res.Obs)
		}
	})
}
