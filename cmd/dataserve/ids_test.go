// Package dataserve holds no command: cmd/dataserve became `cmd/sweep -suite serve`.
// This file re-runs that suite through the shared drivers under the test IDs
// the retired command's tests had, because the test floor names them; the
// suite's own tests live in internal/sweep/suites.
package dataserve

import (
	"testing"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func params(samples, epochs int, seed uint64) suites.Params {
	return suites.Params{Tenants: 3, Samples: samples, Epochs: epochs, Seed: seed}
}

func TestSweepCells(t *testing.T) { sweep.Cells(t, suites.Serve.Cells(params(24, 2, 1))) }

func TestDeterministicAcrossRuns(t *testing.T) {
	sweep.Deterministic(t, suites.Serve.Cell(params(24, 2, 7), "all/cosmo"),
		"digest", "inj.", "svc.decode.count", "svc.retries", "svc.cache.quarantined")
}

// The corruptions are the retired hand-written table's, one observation
// name for each struct field it poked.
func TestReconcileDetectsMismatch(t *testing.T) {
	sweep.Mutations(t, suites.Serve.Cell(params(16, 1, 3), "clean/cosmo"),
		sweep.Mutation{Name: "digest diverged", Mutate: func(o sweep.Obs) { o["digest.t1"] ^= 1 }},
		sweep.Bump("decode count", 1, "svc.decode.count"),
		sweep.Bump("dedup count", -1, "svc.decode.dedup"),
		sweep.Bump("phantom retry", 1, "svc.retries"),
		sweep.Bump("phantom quarantine", 1, "svc.cache.quarantined"),
		sweep.Bump("dispatched count", -1, "svc.dispatched"),
		sweep.Bump("lost delivery", -1, "t0.samples", "t0.drained"),
		sweep.Bump("tenant decode drift", 1, "t2.decodes"),
		sweep.Bump("obs decode drift", 1, "obs.svc.decode.count"),
		sweep.Bump("obs dedup drift", -1, "obs.svc.decode.dedup"),
		sweep.Bump("obs retry drift", 1, "obs.svc.retries"),
		sweep.Bump("obs quarantine drift", 1, "obs.svc.cache.quarantined"),
		sweep.Bump("unlogged transient", 1, "inj.transient"),
		sweep.Bump("unlogged rot", 1, "inj.rot"),
		sweep.Bump("phantom shed", 1, "svc.shed", "obs.svc.shed", "t0.shed", "obs.t0.shed"),
		sweep.Bump("tenant shed drift", 1, "t1.shed"),
		sweep.Bump("obs shed drift", 1, "obs.svc.shed"),
		sweep.Bump("phantom breaker reject", 1, "svc.breaker.rejects", "obs.svc.breaker.rejects", "t0.breaker.rejects", "obs.t0.breaker.rejects"),
		sweep.Bump("obs breaker drift", 1, "obs.svc.breaker.rejects"),
		sweep.Bump("phantom trip", 1, "t2.breaker.trips"),
		sweep.Bump("phantom skip", 1, "t0.skips"),
		sweep.Bump("phantom blacklist", 1, "svc.poisoned"),
		sweep.Bump("watchdog fired", 1, "svc.detached.slow"))
}
