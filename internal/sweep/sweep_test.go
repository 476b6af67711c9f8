package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// toy is a suite small enough to reason about by hand: a faulted cell and
// a clean cell that share one twin, and one observation ("spare") that no
// expectation reads.
func toy(twinRuns *int) []Cell {
	twin := &Cell{Name: "reference", Run: func() (Result, error) {
		*twinRuns++
		return Result{Obs: Obs{"digest": 0x1234}}, nil
	}}
	table := []Expect{
		Eq("delivered", 8, "every sample is delivered"),
		Mirror("recovered", "inj.fault"),
		SumEq("served", "hits", "misses"),
		AtMost("lag", 16, "lag bound"),
		Mirror("digest", "twin.digest"),
	}
	run := func(faults int64) func() (Result, error) {
		return func() (Result, error) {
			return Result{
				Obs: Obs{"delivered": 8, "recovered": faults, "inj.fault": faults, "served": 8, "hits": 5,
					"misses": 3, "lag": 9, "digest": 0x1234, "spare": 42},
				Info: map[string]float64{"rate": 1.5},
			}, nil
		}
	}
	return []Cell{
		{Name: "faulted", Run: run(2), Twin: twin, Expect: table},
		{Name: "clean", Run: run(0), Twin: twin, Expect: table},
	}
}

func TestUnguardedReportsTheUnreadObservation(t *testing.T) {
	runs := 0
	res, err := NewRunner().Run(toy(&runs)[0])
	if err != nil {
		t.Fatal(err)
	}
	// "lag" is read only by an inequality, which a +-1 nudge cannot trip:
	// it counts as guarded because a push past the bound is rejected.
	// "twin.digest" is a reference value and never reported.
	if got := Unguarded(res.Obs, toy(&runs)[0].Expect); !reflect.DeepEqual(got, []string{"spare"}) {
		t.Fatalf("Unguarded = %v, want [spare]", got)
	}
	if res.Obs["spare"] != 42 || res.Obs["lag"] != 9 {
		t.Fatalf("Unguarded left its perturbations behind: %v", res.Obs)
	}
}

func TestCheck(t *testing.T) {
	o := Obs{"a": 3, "b": 4, "c": 7, "digest.x": 0x10}
	for _, tc := range []struct {
		e  Expect
		ok bool
	}{
		{Eq("a", 3, ""), true},
		{Eq("a", 4, ""), false},
		{AtMost("a", 3, ""), true},
		{AtMost("a", 2, ""), false},
		{AtLeast("a", 3, ""), true},
		{AtLeast("a", 4, ""), false},
		{Mirror("a", "b"), false},
		{SumEq("c", "a", "b"), true},
		{SumEq("c", "a"), false},
		{Expect{Left: []string{"a", "b"}, Op: GE, Const: 8}, false},
		{Expect{Left: []string{"missing"}, Op: EQ}, true}, // an unrecorded observation reads as zero
		{Expect{Left: []string{"a"}, Op: "!="}, false},    // an unknown comparison never holds
	} {
		if err := Check(o, []Expect{tc.e}); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.e, err, tc.ok)
		}
	}
	err := Check(o, []Expect{Eq("digest.x", 0x11, "hex for digests")})
	if err == nil || !strings.Contains(err.Error(), "digest.x=0000000000000010") || !strings.Contains(err.Error(), "hex for digests") {
		t.Fatalf("violation message = %v", err)
	}
}

func TestRunnerComputesTheTwinOnceOnDemand(t *testing.T) {
	runs := 0
	cells := toy(&runs)
	r := NewRunner()
	// The clean cell is not run first: the faulted cell's twin is computed
	// because it is needed, not because something earlier left it behind.
	for _, c := range cells {
		res, err := r.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs["twin.digest"] != 0x1234 || res.Info["rate"] != 1.5 {
			t.Fatalf("%s: twin or info not merged: %+v", c.Name, res)
		}
	}
	if runs != 1 {
		t.Fatalf("twin ran %d times, want once", runs)
	}

	bad := cells[0]
	bad.Name, bad.Expect = "diverged", []Expect{Eq("twin.digest", 0, "")}
	if _, err := r.Run(bad); err == nil || !strings.Contains(err.Error(), "diverged: expected twin.digest == 0") {
		t.Fatalf("table violation not reported: %v", err)
	}
	boom := errors.New("boom")
	failing := Cell{Name: "failing", Run: func() (Result, error) { return Result{}, boom }}
	if _, err := r.Run(failing); !errors.Is(err, boom) {
		t.Fatalf("run error lost: %v", err)
	}
	if _, err := r.Run(Cell{Name: "orphan", Run: cells[0].Run, Twin: &failing}); !errors.Is(err, boom) {
		t.Fatalf("twin error lost: %v", err)
	}
}

func TestTableAndJSON(t *testing.T) {
	runs := 0
	var out bytes.Buffer
	rows, err := Table(&out, toy(&runs), []Column{ObsColumn("digest", 17, "digest"), ObsColumn("lag", 4, "lag")})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "0000000000001234") || !strings.HasSuffix(lines[1], "yes") {
		t.Fatalf("table:\n%s", out.String())
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, map[string]any{"suite": "toy", "seed": 1}, rows); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suite string
		Cells []struct {
			Name string
			Obs  map[string]any
			Info map[string]float64
		}
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("%v in:\n%s", err, js.String())
	}
	if doc.Suite != "toy" || len(doc.Cells) != 2 || doc.Cells[0].Obs["digest"] != "0000000000001234" ||
		doc.Cells[0].Obs["lag"] != 9.0 || doc.Cells[1].Info["rate"] != 1.5 {
		t.Fatalf("json:\n%s", js.String())
	}

	stop := toy(&runs)
	stop[0].Expect = []Expect{Eq("delivered", 9, "")}
	if rows, err := Table(&out, stop, nil); err == nil || len(rows) != 0 {
		t.Fatalf("a failing cell must stop the sweep: %d rows, err %v", len(rows), err)
	}
}

func TestDrivers(t *testing.T) {
	runs := 0
	cells := toy(&runs)
	if got := Cells(t, cells); len(got) != 2 || got["clean"].Obs["recovered"] != 0 {
		t.Fatalf("Cells returned %v", got)
	}
	Deterministic(t, cells[0])
	Deterministic(t, cells[0], "digest", "inj.")
	guarded := cells[0]
	guarded.Expect = append(guarded.Expect, Eq("spare", 42, ""))
	Mutations(t, guarded,
		Mutation{Name: "consistent lie", Mutate: func(o Obs) { o["recovered"]++; o["inj.fault"]++ }, Accept: true},
		Mutation{Name: "lost sample", Mutate: func(o Obs) { o["delivered"]--; o["served"]--; o["hits"]-- }})
}
