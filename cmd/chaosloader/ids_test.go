// Package chaosloader holds no command: cmd/chaosloader became the fault-mix cells of
// `cmd/sweep -suite loader`.
// This file re-runs those cells through the shared drivers under the test IDs
// the retired command's tests had, because the test floor names them; the
// suite's own tests live in internal/sweep/suites.
package chaosloader

import (
	"testing"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func params(seed uint64) suites.Params { return suites.Params{Samples: 24, Epochs: 2, Seed: seed} }

func TestSweepCells(t *testing.T) {
	sweep.Cells(t, suites.Loader.Cells(params(1))[:16]) // the scenario matrix follows the fault-mix axis
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sweep.Deterministic(t, suites.Loader.Cell(params(7), "all/cpu/cached"))
}

func TestReconcileDetectsMismatch(t *testing.T) {
	sweep.Mutations(t, suites.Loader.Cell(params(1), "all/cpu/cached"),
		sweep.Mutation{Name: "matched", Mutate: func(sweep.Obs) {}, Accept: true},
		sweep.Bump("short delivery", -1, "delivered"),
		sweep.Bump("panic drift", -1, "panics"),
		sweep.Bump("stall drift", 1, "stalls"),
		sweep.Bump("retry drift", -1, "retried"),
		sweep.Bump("cache quarantine drift", -1, "quar.cache"),
		sweep.Bump("obs quarantine drift", 1, "quar.obs"))
}
