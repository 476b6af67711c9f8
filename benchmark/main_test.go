package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"scipp/internal/codec"
	"scipp/internal/obs"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// TestManifest checks that the committed BENCHMARK.json is exactly what
// this harness defines, and that what it defines is inside the contract's
// limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), want.EndToEnd...), want.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	for _, d := range want.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload at tiny size, end to end and traced, twice
// over, and checks what a run promises: exactly the declared metrics, each
// finite, nothing failed, and the same digest from the same seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var first result
			for repeat := 0; repeat < 2; repeat++ {
				var out bytes.Buffer
				res, err := runWorkload(&out, options{workload: w.name, seed: 7, seconds: 0.1, trace: trace, quick: true, outDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s trace=%d: metric %s missing", w.name, trace, d.Name)
						continue
					}
					if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s trace=%d: metric %s = %v %q", w.name, trace, d.Name, v.Value, v.Unit)
					}
					if trace == 0 && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
					}
				}
				if trace == 1 {
					if v := res.Metrics["failed_share"].Value; v != 0 {
						t.Errorf("%s: failed_share = %v", w.name, v)
					}
					if v := res.Metrics["attrib.cpu_s"].Value; v <= 0 {
						t.Errorf("%s: attrib.cpu_s = %v", w.name, v)
					}
				}
				// The last line a run prints is its result object, with
				// exactly the contract's keys.
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(res.line()), &keys); err != nil || len(keys) != 4 {
					t.Errorf("%s: result line %q: %v", w.name, res.line(), err)
				}
				if repeat == 0 {
					first = res
				} else if res.digest != first.digest || res.digest == 0 {
					t.Errorf("%s trace=%d: digests %016x and %016x from one seed", w.name, trace, first.digest, res.digest)
				}
			}
		}
	}
}

// TestWrapperKeepsCapabilities checks that the tracing wrapper hides none
// of the optional interfaces the loader and the service look for: the
// decoder's Recycler, and the format's shape bound and prober.
func TestWrapperKeepsCapabilities(t *testing.T) {
	for _, w := range workloads {
		data, err := w.sized(true).build(1)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := wrapFormat(data.format, newTracer(data.mem, time.Now()))
		if err != nil {
			t.Fatal(err)
		}
		_, innerBounded := data.format.(codec.ShapeBounded)
		_, outerBounded := wrapped.(codec.ShapeBounded)
		_, innerProber := data.format.(codec.ShapeProber)
		_, outerProber := wrapped.(codec.ShapeProber)
		if innerBounded != outerBounded || innerProber != outerProber {
			t.Errorf("%s: wrapper changes shape capabilities (bounded %v->%v, prober %v->%v)", w.name, innerBounded, outerBounded, innerProber, outerProber)
		}
		if wrapped.Name() != data.format.Name() {
			t.Errorf("%s: wrapper renames %q to %q", w.name, data.format.Name(), wrapped.Name())
		}
		cd, err := wrapped.Open(data.mem.Blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cd.(codec.Recycler); !ok {
			t.Errorf("%s: wrapped decoder is not a Recycler", w.name)
		}
		codec.Recycle(cd)
	}
}

// TestTracedDecodeAllocatesNoMore is why the wrapper forwards Recycle and
// reuses its own decoder shells: one Open, decode and Recycle through it
// must allocate exactly what the bare format allocates, or the traced run
// no longer explains the allocations of the untraced one. The control shows
// what hiding the recycler costs (obs.InstrumentFormat embeds the decoder
// and so hides it).
func TestTracedDecodeAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, w := range workloads {
		data, err := w.sized(true).build(1)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := wrapFormat(data.format, newTracer(data.mem, time.Now()))
		if err != nil {
			t.Fatal(err)
		}
		hidden := obs.InstrumentFormat(data.format, obs.NewRegistry(), trace.NewWallClock())
		blob := data.mem.Blobs[0]
		var dst *tensor.Tensor
		perDecode := func(f codec.Format) float64 {
			return testing.AllocsPerRun(20, func() {
				cd, err := f.Open(blob)
				if err != nil {
					t.Fatal(err)
				}
				if dst == nil {
					dst = tensor.New(cd.OutputDType(), cd.OutputShape()...)
				}
				if err := codec.DecodeInto(cd, dst); err != nil {
					t.Fatal(err)
				}
				codec.Recycle(cd)
			})
		}
		bare, traced := perDecode(data.format), perDecode(wrapped)
		t.Logf("%s (%s): %.0f allocs per decode bare, %.0f through the forwarding wrapper, %.0f with the recycler hidden", w.name, data.format.Name(), bare, traced, perDecode(hidden))
		if traced != bare {
			t.Errorf("%s: %.0f allocs per decode through the wrapper, %.0f without it", w.name, traced, bare)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	xs := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	q1, q3 := quartiles(xs)
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	if m := median(xs); m != 13.5 {
		t.Errorf("median = %v", m)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "cpu_ms_per_sample", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "samples_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower beyond bound", lower, steady, []float64{110, 111, 109, 110, 110}, "regressed"},
		{"faster", lower, steady, []float64{90, 91, 89, 90, 90}, "ok"},
		{"rate fell beyond bound", higher, steady, []float64{90, 91, 89, 90, 90}, "regressed"},
		{"rate rose", higher, steady, []float64{110, 111, 109, 110, 110}, "ok"},
		{"spread wider than bound", lower, steady, []float64{90, 110, 100, 85, 115}, "unresolved"},
		{"wide spread but every run better", lower, []float64{100, 120, 110, 105, 115}, []float64{50, 60, 55, 52, 58}, "ok"},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
