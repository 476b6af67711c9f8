// Package obs is the pipeline's observability layer: a typed metrics
// registry (counters, gauges, fixed-bucket histograms) and a span-based
// stage tracer, both running on trace.Clock virtual time.
//
// The paper's core methodology is measurement — it attributes end-to-end
// training time to individual preprocessing stages (read, decode, augment,
// stage-in) before optimizing any of them. This package makes that
// attribution a first-class, deterministic artifact: every duration comes
// from a trace.Clock, so tests drive a trace.VirtualClock and assert exact
// values with no sleeps and no tolerances.
//
// Disabled-path contract: a nil *Registry — and every instrument handle
// obtained from one — is a true no-op. Instrument methods on nil receivers
// return after a single nil check, so the uninstrumented hot path pays one
// predictable branch per call site (guarded by BenchmarkNoopRegistry).
// Hold instrument handles (*Counter, *Gauge, *Histogram) rather than
// re-looking names up: handle operations are lock-free atomics, safe for
// concurrent prefetch workers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 instrument. The nil Counter
// discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 instrument that also tracks the maximum
// value ever set (queue depths are asserted on via their high-water mark).
// The nil Gauge discards all updates.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	max float64
	set bool
}

// Set records the gauge's current value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
	g.mu.Unlock()
}

// Value returns the last value set; zero on a nil receiver or before any Set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the high-water mark; zero on a nil receiver or before any Set.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Histogram is a fixed-bucket distribution instrument. Bucket i counts
// observations v <= Bounds[i]; one implicit overflow bucket counts the rest.
// Sum and Count are tracked exactly, so mean durations reconcile without
// bucket-interpolation error. The nil Histogram discards all updates.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64
	count  int64
	sum    float64
}

// DurationBuckets are the default span-duration bounds, in seconds:
// 1us..100s in decade steps. Stage times in this repo span from sub-ms
// simulated decode slices to multi-second epoch stalls.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation: the smallest bound covering at least round(q*count)
// observations, and at least one. It is +Inf when that observation fell in
// the overflow bucket, and 0 with no observations or on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	need := max(int64(q*float64(h.count)+0.5), 1)
	var seen int64
	for i, c := range h.counts[:len(h.bounds)] {
		if seen += c; seen >= need {
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// Registry is a named collection of instruments. The zero value is unusable;
// construct with NewRegistry. A nil *Registry is the disabled path: every
// lookup returns a nil instrument and every snapshot is empty.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil on a nil
// receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a nil
// receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Bounds must be sorted ascending; later calls reuse the
// first registration's bounds. Nil on a nil receiver. It panics if a first
// registration passes no bounds (a programming error: an unbounded histogram
// cannot bucket anything).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q registered with no bucket bounds", name))
		}
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// CounterValue is one counter's snapshot entry.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot entry.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramValue is one histogram's snapshot entry. Counts has one more
// element than Bounds: the trailing overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the exact mean observation, or NaN with no observations.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, with every section sorted
// by name so renderings are deterministic.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry's current state. Empty on a nil receiver.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range counts {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range hists {
		h.mu.Lock()
		s.Histograms = append(s.Histograms, HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		})
		h.mu.Unlock()
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the snapshot value of the named counter (zero if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshot entry of the named gauge (zero-valued if
// absent).
func (s Snapshot) Gauge(name string) GaugeValue {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g
		}
	}
	return GaugeValue{Name: name}
}

// Histogram returns the snapshot entry of the named histogram and whether it
// exists.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Delta returns the per-interval difference s - prev: counters and histogram
// counts/sums subtract (instruments absent from prev pass through); gauges
// keep their current value, because a last-value instrument has no
// meaningful difference. Used for per-epoch roll-ups.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	for _, c := range s.Counters {
		d.Counters = append(d.Counters, CounterValue{Name: c.Name, Value: c.Value - prev.Counter(c.Name)})
	}
	d.Gauges = append(d.Gauges, s.Gauges...)
	for _, h := range s.Histograms {
		hv := HistogramValue{
			Name:   h.Name,
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		}
		if p, ok := prev.Histogram(h.Name); ok && len(p.Counts) == len(hv.Counts) {
			for i := range hv.Counts {
				hv.Counts[i] -= p.Counts[i]
			}
			hv.Count -= p.Count
			hv.Sum -= p.Sum
		}
		d.Histograms = append(d.Histograms, hv)
	}
	return d
}
