// Package overload holds no command: cmd/overload became `cmd/sweep -suite overload`.
// This file re-runs that suite through the shared drivers under the test IDs
// the retired command's tests had, because the test floor names them; the
// suite's own tests live in internal/sweep/suites.
package overload

import (
	"testing"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func params(seed uint64) suites.Params { return suites.Params{Samples: 24, Epochs: 2, Seed: seed} }

func TestSweepCells(t *testing.T) { sweep.Cells(t, suites.Overload.Cells(params(1))) }

func TestIsolationProof(t *testing.T) {
	res, err := sweep.NewRunner().Run(suites.Overload.Cell(params(1), "duo/overload/full"))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Obs
	if o["digest.v0"] != o["twin.digest.v0"] || o["v0.p99"] > 16 || o["rogue.breaker.trips"] != 1 ||
		o["cache.tier.failovers"] != 1 || o["inj.tier.dead"] == 0 {
		t.Errorf("isolation broken: %v", o)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sweep.Deterministic(t, suites.Overload.Cell(params(7), "crowd/overload/full"),
		"digest.v", "svc.poisoned", "cache.tier.failovers", "rogue.breaker.trips")
}

// The corruptions are the retired hand-written table's, one observation
// name for each struct field it poked.
func TestReconcileDetectsMismatch(t *testing.T) {
	sweep.Mutations(t, suites.Overload.Cell(params(3), "crowd/overload/full"),
		sweep.Mutation{Name: "victim digest diverged", Mutate: func(o sweep.Obs) { o["digest.v0"] ^= 1 }},
		sweep.Bump("victim lost samples", -1, "v0.samples"),
		sweep.Bump("victim shed", 1, "v1.shed"),
		sweep.Set("victim lag blowout", "v0.p99", 1000),
		sweep.Bump("rogue delivered through flood", 1, "rogue.samples"),
		sweep.Set("missing breaker trip", "rogue.breaker.trips", 0),
		sweep.Set("double breaker trip", "rogue.breaker.trips", 2),
		sweep.Bump("phantom probe", 1, "rogue.breaker.probes"),
		sweep.Bump("service shed drift", 1, "svc.shed"),
		sweep.Bump("service reject drift", -1, "svc.breaker.rejects"),
		sweep.Set("missing blacklist", "svc.poisoned", 0),
		sweep.Set("poison reject overflow", "svc.poison.rejects", 1000),
		sweep.Bump("unlogged NVMe error", 1, "cache.nvme.errors"),
		sweep.Bump("double failover", 1, "cache.tier.failovers"),
		sweep.Bump("phantom recovery", 1, "cache.tier.recoveries"),
		sweep.Mutation{Name: "tier death vanished", Mutate: func(o sweep.Obs) {
			o["inj.tier.io"], o["inj.tier.dead"], o["cache.nvme.errors"] = 0, 0, 0
		}},
		sweep.Bump("dispatch ledger leak", 1, "svc.dispatched"),
		sweep.Bump("watchdog fired", 1, "svc.detached.slow"))
}
