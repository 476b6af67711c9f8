package sweep

//lint:file-ignore deadcode the shared test drivers: the suites' tests and the retired commands' test shims run cells, reruns and mutations through them

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"scipp/internal/trace"
)

// Cells is the all-cells test driver: every cell runs as a subtest named
// after it, through one Runner (so `-run` of any single cell computes its
// twin on demand), and once all have run no goroutine may be left behind —
// including workers abandoned by a stall watchdog. It returns the results
// by cell name for suite-specific cross-cell assertions.
func Cells(t *testing.T, cells []Cell) map[string]Result {
	before := runtime.NumGoroutine()
	r := NewRunner()
	out := map[string]Result{}
	for _, c := range cells {
		t.Run(c.Name, func(t *testing.T) {
			res, err := r.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			out[c.Name] = res
		})
	}
	// Allow a short settling window for drains racing teardown.
	clock := trace.NewWallClock()
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return out
		}
		if clock.Now() > 5 {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before sweep, %d after\n%s", before, after, buf[:n])
		}
		clock.(trace.Sleeper).Sleep(0.02)
	}
}

// Deterministic is the same-seed driver: two independent runs of c must
// reproduce every observation whose name starts with one of prefixes (all
// observations when none are given — name the stable ones for cells whose
// other counters depend on goroutine interleaving).
func Deterministic(t *testing.T, c Cell, prefixes ...string) {
	a, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	stable := func(k string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
		return len(prefixes) == 0
	}
	compared := 0
	for _, k := range sortedKeys(a.Obs) {
		if !stable(k) {
			continue
		}
		compared++
		if a.Obs[k] != b.Obs[k] {
			t.Errorf("%s not reproducible: %s vs %s", k, Format(k, a.Obs[k]), Format(k, b.Obs[k]))
		}
	}
	if compared == 0 {
		t.Fatalf("no observation of %s matches %v", c.Name, prefixes)
	}
}

// Mutation is an explicit extra case for Mutations: a corruption of
// several observations at once, which the table must reject — or, with
// Accept, a change it must still accept.
type Mutation struct {
	Name   string
	Mutate func(Obs)
	Accept bool
}

// Bump is the Mutation adding delta to each of keys.
func Bump(name string, delta int64, keys ...string) Mutation {
	return Mutation{Name: name, Mutate: func(o Obs) {
		for _, k := range keys {
			o[k] += delta
		}
	}}
}

// Set is the Mutation overwriting key with v.
func Set(name, key string, v int64) Mutation {
	return Mutation{Name: name, Mutate: func(o Obs) { o[key] = v }}
}

// Mutations is the generic mutation driver: on a genuine result of c, every
// recorded observation must be guarded by some expectation (see Unguarded),
// and every extra case must be rejected or accepted as it says. A sweep's
// "everything reconciles" is only as strong as the table's ability to
// notice when it does not.
func Mutations(t *testing.T, c Cell, extra ...Mutation) {
	good, err := NewRunner().Run(c)
	if err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	loose := map[string]bool{}
	for _, k := range Unguarded(good.Obs, c.Expect) {
		loose[k] = true
	}
	for _, k := range sortedKeys(good.Obs) {
		if strings.HasPrefix(k, "twin.") {
			continue // reference values: Unguarded never reports them
		}
		t.Run(k, func(t *testing.T) {
			if loose[k] {
				t.Fatalf("no expectation notices a change to %s", k)
			}
		})
	}
	for _, m := range extra {
		t.Run(m.Name, func(t *testing.T) {
			bad := Obs{}
			for k, v := range good.Obs {
				bad[k] = v
			}
			m.Mutate(bad)
			if len(bad) != len(good.Obs) {
				t.Fatalf("mutation touches an observation %s never recorded", c.Name)
			}
			err := Check(bad, c.Expect)
			if m.Accept && err != nil {
				t.Fatalf("table rejected a consistent result: %v", err)
			}
			if !m.Accept && err == nil {
				t.Fatal("table accepted a corrupted result")
			}
		})
	}
}

func sortedKeys(o Obs) []string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
