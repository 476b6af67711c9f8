package suites

import (
	"strings"
	"testing"

	"scipp/internal/dist"
	"scipp/internal/fault"
	"scipp/internal/sweep"
	"scipp/internal/train"
)

// testParams sizes each suite small enough for the -race merge gate.
func testParams(suite string, seed uint64) Params {
	switch suite {
	case "serve":
		return Params{Tenants: 3, Samples: 24, Epochs: 2, Seed: seed}
	case "train":
		return Params{App: "cosmoflow", Ranks: 3, Samples: 12, Batch: 4, Epochs: 2, Seed: seed, CrashStep: 1, CheckpointEvery: 1}
	}
	return Params{Samples: 24, Epochs: 2, Seed: seed}
}

// TestCells runs every acceptance suite's real sweep: each cell must digest
// bit-identically to its clean twin and reconcile its table, and no suite
// may leak a goroutine. The train suite skips its wall-clock stall
// scenarios (hang, slow), which the train package's elastic tests cover.
// The paper suite has no expectations to reconcile: its check is
// cmd/sweep's golden.
func TestCells(t *testing.T) {
	want := map[string]int{"loader": 28, "serve": 8, "overload": 40, "train": 4}
	for _, s := range All() {
		if s.Name == "paper" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			p := testParams(s.Name, 1)
			cells := s.Cells(p)
			if len(cells) != want[s.Name] {
				t.Fatalf("%d cells, want %d", len(cells), want[s.Name])
			}
			if s.Name == "train" {
				p.App = "deepcam"
				cells = append(cells[:2:2], s.Cells(p)[:2]...)
			}
			results := sweep.Cells(t, cells)
			if s.Name != "loader" {
				return
			}
			// Placement and cache mode must not change what is delivered:
			// all cells over one dataset share one digest.
			byData := map[string]int64{}
			for name, res := range results {
				data, _, _ := strings.Cut(name, "/")
				if !strings.Contains("deepcam cosmoflow weather", data) {
					data = "chaos"
				}
				if prev, ok := byData[data]; ok && prev != res.Obs["digest"] {
					t.Errorf("%s: digest %s diverged from another %s cell's %s", name,
						sweep.Format("digest", res.Obs["digest"]), data, sweep.Format("digest", prev))
				}
				byData[data] = res.Obs["digest"]
			}
			if len(byData) != 4 {
				t.Errorf("saw datasets %v, want 4", byData)
			}
		})
	}
}

// TestFaultedCellAlone runs one faulted cell with nothing before it: the
// harness computes its clean twin on demand, so `-run` of any single cell
// passes (the old per-cmd sweeps compared against a baseline that only an
// earlier clean cell filled in).
func TestFaultedCellAlone(t *testing.T) {
	res, err := sweep.NewRunner().Run(Loader.Cell(testParams("loader", 1), "panic/cpu/cached"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs["inj.panic"] == 0 || res.Obs["digest"] != res.Obs["twin.digest"] {
		t.Fatalf("cell ran without faults or without its twin: %v", res.Obs)
	}
}

// TestDeterministic pins the seeded-chaos contract the sweeps rely on:
// repeating a faulted cell reproduces its digests, its injector logs and
// every counter that does not depend on goroutine interleaving.
func TestDeterministic(t *testing.T) {
	for _, tc := range []struct {
		suite  Suite
		cell   string
		stable []string // nil: every observation
	}{
		{Loader, "all/cpu/cached", nil},     // panic + stall + bitrot
		{Loader, "weather/gpu/cached", nil}, // ragged + device + bitrot + probe
		{Serve, "all/cosmo", []string{"digest", "inj.", "svc.decode.count", "svc.retries", "svc.cache.quarantined"}},
		{Overload, "crowd/overload/full", []string{"digest.v", "svc.poisoned", "cache.tier.failovers", "rogue.breaker.trips"}},
	} {
		t.Run(tc.suite.Name+"/"+tc.cell, func(t *testing.T) {
			sweep.Deterministic(t, tc.suite.Cell(testParams(tc.suite.Name, 7), tc.cell), tc.stable...)
		})
	}
}

// TestMutations perturbs every observation of a genuine result of each
// suite's richest cells — every protection mechanism active and checkable
// — and requires some expectation to notice. The extra cases are the
// multi-observation corruptions the single-key pass cannot express: a lie
// told consistently through every view of the ledger must still be caught.
func TestMutations(t *testing.T) {
	for _, tc := range []struct {
		suite Suite
		cell  string
		extra []sweep.Mutation
	}{
		{Loader, "all/cpu/cached", nil},
		{Loader, "weather/gpu/cached", nil},
		{Serve, "all/cosmo", []sweep.Mutation{
			sweep.Bump("lost delivery", -1, "t0.samples", "t0.drained"),
			sweep.Bump("phantom shed", 1, "svc.shed", "obs.svc.shed", "t0.shed", "obs.t0.shed"),
			sweep.Bump("phantom breaker reject", 1, "svc.breaker.rejects", "obs.svc.breaker.rejects", "t0.breaker.rejects", "obs.t0.breaker.rejects"),
		}},
		{Overload, "crowd/overload/full", []sweep.Mutation{
			{Name: "tier death vanished", Mutate: func(o sweep.Obs) {
				o["cache.nvme.errors"] -= o["inj.tier.dead"]
				o["inj.tier.dead"] = 0
			}},
			sweep.Set("victim lag blowout", "v0.p99", 1000),
			sweep.Bump("poison reject overflow", 1000, "svc.poison.rejects", "obs.svc.poison.rejects"),
		}},
		{Train, "cosmoflow/crash", nil},
	} {
		t.Run(tc.suite.Name+"/"+tc.cell, func(t *testing.T) {
			sweep.Mutations(t, tc.suite.Cell(testParams(tc.suite.Name, 3), tc.cell), tc.extra...)
		})
	}
}

// TestIsolationProof pins the acceptance scenario end to end: tenant A
// (the rogue) sees 100% decode failures while the victims' NVMe cache tier
// dies mid-epoch — and under the full protection policy tenant B still
// delivers bit-identical batches within the p99 fairness bound of 16,
// while the rogue's breaker trips exactly once.
func TestIsolationProof(t *testing.T) {
	res, err := sweep.NewRunner().Run(Overload.Cell(testParams("overload", 1), "duo/overload/full"))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Obs
	if o["digest.v0"] != o["twin.digest.v0"] {
		t.Errorf("victim digest %016x != clean twin %016x", uint64(o["digest.v0"]), uint64(o["twin.digest.v0"]))
	}
	if o["v0.p99"] > p99Bound {
		t.Errorf("victim p99 dispatch lag %d exceeds %d", o["v0.p99"], p99Bound)
	}
	if o["rogue.breaker.trips"] != 1 {
		t.Errorf("rogue breaker trips = %d, want 1", o["rogue.breaker.trips"])
	}
	if o["cache.tier.failovers"] != 1 {
		t.Errorf("tier failovers = %d, want 1", o["cache.tier.failovers"])
	}
	if o["inj.tier.dead"] == 0 {
		t.Error("injector log records no tier death: the NVMe tier never died mid-epoch")
	}
}

// TestEvictionReconcile pins how an elastic run is flattened and
// cross-checked: a crash injection with no matching eviction, an eviction
// at the wrong step, and a spurious extra eviction must all be reported;
// slow injections evict nobody and demand nothing.
func TestEvictionReconcile(t *testing.T) {
	crash := fault.Injection{Kind: fault.CrashRank, Rank: 1, Step: 3}
	ev := dist.Eviction{Rank: 1, Reason: "crash"}
	for _, tc := range []struct {
		name string
		res  train.Result
		ok   bool
	}{
		{"matched", train.Result{
			RankLog:       []fault.Injection{crash},
			Evictions:     []dist.Eviction{ev},
			EvictionSteps: []int{3},
		}, true},
		{"missing eviction", train.Result{RankLog: []fault.Injection{crash}}, false},
		{"wrong step", train.Result{
			RankLog:       []fault.Injection{crash},
			Evictions:     []dist.Eviction{ev},
			EvictionSteps: []int{4},
		}, false},
		{"spurious eviction", train.Result{
			Evictions:     []dist.Eviction{{Rank: 0, Reason: "timeout"}},
			EvictionSteps: []int{2},
		}, false},
		{"slow injections ignored", train.Result{
			RankLog: []fault.Injection{{Kind: fault.SlowRank, Rank: 2, Step: 1}},
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := sweep.Check(observeElastic(&tc.res), evictionExpect)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("mismatch not reported")
			}
		})
	}
}

// TestPaperRecord pins the paper suite's number encoding: a printed field
// is stored as the integer of its printed digits under its column head
// (_eN for N decimals, a unit suffix dropped), a name field as head.name,
// and the table shows each value back with its decimals.
func TestPaperRecord(t *testing.T) {
	o := row("ratio vs-clean node err mean exact", "%.2fx %+.2f %.0f %.1f%% %.4f %s", 2.8649, -5.125, 808.5, 17.46, 0.012512, "yes")
	want := sweep.Obs{"ratio_e2": 286, "vs-clean_e2": -512, "node": 808, "err_e1": 175, "mean_e4": 125, "exact.yes": 1}
	if len(o) != len(want) {
		t.Errorf("got %v, want %v", o, want)
	}
	for k, v := range want {
		if o[k] != v {
			t.Errorf("%s = %d, want %d", k, o[k], v)
		}
	}
	if got, show := showFixed(sweep.Result{Obs: o}), "err=17.5 exact.yes=1 mean=0.0125 node=808 ratio=2.86 vs-clean=-5.12"; got != show {
		t.Errorf("showFixed = %q, want %q", got, show)
	}
}
