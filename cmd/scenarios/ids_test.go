// Package scenarios holds no command: cmd/scenarios became the scenario cells of
// `cmd/sweep -suite loader` (its committed table: cmd/sweep/testdata/loader.golden.json).
// This file re-runs those cells through the shared drivers under the test IDs
// the retired command's tests had, because the test floor names them; the
// suite's own tests live in internal/sweep/suites.
package scenarios

import (
	"testing"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func TestScenarioMatrix(t *testing.T) {
	// 3 domains x 2 placements x 2 cache modes, after the 16 fault-mix cells.
	sweep.Cells(t, suites.Loader.Cells(suites.Params{Samples: 24, Epochs: 2, Seed: 1})[16:])
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sweep.Deterministic(t, suites.Loader.Cell(suites.Params{Samples: 24, Epochs: 2, Seed: 7}, "weather/gpu/cached"))
}
