package obs_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

func TestCounter(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if r.Counter("a") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("depth")
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("fresh gauge not zero")
	}
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value = %v, want 2", got)
	}
	if got := g.Max(); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
	// A gauge that only ever saw negative values must report that value as
	// its max, not zero.
	n := r.Gauge("neg")
	n.Set(-5)
	if got := n.Max(); got != -5 {
		t.Fatalf("negative-only Max = %v, want -5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := h.Sum(); got != 1066.5 {
		t.Fatalf("Sum = %v, want 1066.5", got)
	}
	hv, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Bucket i counts v <= bounds[i]; trailing bucket is overflow.
	want := []int64{2, 2, 1, 1}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("Counts = %v, want %v", hv.Counts, want)
	}
	if got := hv.Mean(); got != 1066.5/6 {
		t.Fatalf("Mean = %v, want %v", got, 1066.5/6)
	}
	if empty := (obs.HistogramValue{}); !math.IsNaN(empty.Mean()) {
		t.Fatalf("empty Mean = %v, want NaN", empty.Mean())
	}
}

func TestHistogramRegistrationPanics(t *testing.T) {
	r := obs.NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("empty bounds", func() { r.Histogram("h1", nil) })
	mustPanic("unsorted bounds", func() { r.Histogram("h2", []float64{2, 1}) })
	// Reuse ignores the second call's bounds entirely, even bad ones.
	h := r.Histogram("h3", []float64{1, 2})
	if got := r.Histogram("h3", nil); got != h {
		t.Fatal("reuse returned a different histogram")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil) // no panic: nil receiver short-circuits
	c.Add(5)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments leaked state")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	tr := obs.NewTracer(nil, &trace.VirtualClock{})
	if tr != nil {
		t.Fatal("NewTracer(nil, clock) != nil")
	}
	if obs.NewTracer(obs.NewRegistry(), nil) != nil {
		t.Fatal("NewTracer(reg, nil) != nil")
	}
	tr.Start("stage").End() // must not touch anything
	if tr.Clock() != nil {
		t.Fatal("nil tracer Clock != nil")
	}
}

func TestSnapshotSortedAndLookups(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(9)
	r.Gauge("y").Set(8)
	r.Histogram("m", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %v", s.Counters)
	}
	if s.Gauges[0].Name != "y" || s.Gauges[1].Name != "z" {
		t.Fatalf("gauges not sorted: %v", s.Gauges)
	}
	if got := s.Counter("b"); got != 2 {
		t.Fatalf("Counter(b) = %d, want 2", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("Counter(missing) = %d, want 0", got)
	}
	if gv := s.Gauge("z"); gv.Value != 9 || gv.Max != 9 {
		t.Fatalf("Gauge(z) = %+v", gv)
	}
	if gv := s.Gauge("missing"); gv.Value != 0 || gv.Name != "missing" {
		t.Fatalf("Gauge(missing) = %+v", gv)
	}
	if _, ok := s.Histogram("missing"); ok {
		t.Fatal("Histogram(missing) found")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c").Add(10)
	r.Gauge("g").Set(4)
	r.Histogram("h", []float64{1, 10}).Observe(0.5)
	prev := r.Snapshot()

	r.Counter("c").Add(5)
	r.Counter("new").Add(3)
	r.Gauge("g").Set(2)
	r.Histogram("h", nil).Observe(20)
	d := r.Snapshot().Delta(prev)

	if got := d.Counter("c"); got != 5 {
		t.Fatalf("delta c = %d, want 5", got)
	}
	if got := d.Counter("new"); got != 3 {
		t.Fatalf("delta new = %d, want 3", got)
	}
	if gv := d.Gauge("g"); gv.Value != 2 {
		t.Fatalf("delta gauge = %+v, want last value 2", gv)
	}
	hv, ok := d.Histogram("h")
	if !ok {
		t.Fatal("delta histogram missing")
	}
	if hv.Count != 1 || hv.Sum != 20 {
		t.Fatalf("delta hist count/sum = %d/%v, want 1/20", hv.Count, hv.Sum)
	}
	if want := []int64{0, 0, 1}; !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("delta hist counts = %v, want %v", hv.Counts, want)
	}
}

func TestTextAndJSONDeterministic(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("pipeline.batches").Add(12)
	r.Gauge("pipeline.queue_depth").Set(3)
	r.Histogram("pipeline.read.seconds", obs.DurationBuckets()).Observe(0.25)
	s := r.Snapshot()

	txt := s.Text()
	for _, want := range []string{"COUNTERS", "GAUGES", "HISTOGRAMS",
		"pipeline.batches", "pipeline.queue_depth", "pipeline.read.seconds"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
	if txt != s.Text() {
		t.Fatal("Text not deterministic")
	}
	if got := (obs.Snapshot{}).Text(); got != "" {
		t.Fatalf("empty snapshot Text = %q, want empty", got)
	}

	js, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var round obs.Snapshot
	if err := json.Unmarshal(js, &round); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(round, s) {
		t.Fatalf("JSON round-trip mismatch:\n got %+v\nwant %+v", round, s)
	}
}

func TestTracerExactDurations(t *testing.T) {
	clock := &trace.VirtualClock{}
	r := obs.NewRegistry()
	tr := obs.NewTracer(r, clock)
	if tr.Clock() != clock {
		t.Fatal("Clock() did not return the construction clock")
	}

	sp := tr.Start("decode")
	clock.Advance(0.125)
	sp.End()
	sp = tr.Start("decode")
	clock.Advance(0.25)
	sp.End()

	s := r.Snapshot()
	hv, ok := s.Histogram("decode.seconds")
	if !ok {
		t.Fatal("decode.seconds missing")
	}
	if hv.Count != 2 || hv.Sum != 0.375 {
		t.Fatalf("decode.seconds count/sum = %d/%v, want 2/0.375", hv.Count, hv.Sum)
	}
	if got := s.Counter("decode.spans"); got != 2 {
		t.Fatalf("decode.spans = %d, want 2", got)
	}
}

func TestErrorKind(t *testing.T) {
	if got := obs.ErrorKind(fmt.Errorf("io: %w", fault.Transient)); got != "transient" {
		t.Fatalf("wrapped transient = %q", got)
	}
	if got := obs.ErrorKind(errors.New("corrupt")); got != "permanent" {
		t.Fatalf("plain error = %q", got)
	}
}

// stubFormat is a minimal codec.Format for instrumentation tests: blobs are
// raw byte payloads decoded into a [n]U8-shaped F32 tensor one chunk at a
// time, with scripted failures.
type stubFormat struct {
	openErr   error
	decodeErr error
	recycled  *int // counts decoder Recycles, when set
}

func (f stubFormat) Name() string { return "stub" }

func (f stubFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	if f.openErr != nil {
		return nil, f.openErr
	}
	return &stubDecoder{blob: blob, err: f.decodeErr, recycled: f.recycled}, nil
}

type stubDecoder struct {
	blob     []byte
	err      error
	recycled *int
}

func (d *stubDecoder) Recycle() {
	if d.recycled != nil {
		*d.recycled++
	}
}

func (d *stubDecoder) OutputShape() tensor.Shape { return tensor.Shape{len(d.blob)} }
func (d *stubDecoder) OutputDType() tensor.DType { return tensor.F32 }
func (d *stubDecoder) NumChunks() int            { return len(d.blob) }
func (d *stubDecoder) Workload() codec.Workload {
	return codec.Workload{BytesIn: len(d.blob), BytesOut: 4 * len(d.blob), Chunks: len(d.blob)}
}

func (d *stubDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	if d.err != nil {
		return d.err
	}
	dst.F32s[chunk] = float32(d.blob[chunk])
	return nil
}

func TestInstrumentFormatMeters(t *testing.T) {
	clock := &trace.VirtualClock{}
	r := obs.NewRegistry()
	f := obs.InstrumentFormat(stubFormat{}, r, clock)
	if f.Name() != "stub" {
		t.Fatalf("Name = %q, want stub (pass-through)", f.Name())
	}

	blob := []byte{1, 2, 3}
	cd, err := f.Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := codec.Decode(cd)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if want := []float32{1, 2, 3}; !reflect.DeepEqual(got.F32s, want) {
		t.Fatalf("decoded = %v, want %v", got.F32s, want)
	}

	s := r.Snapshot()
	if v := s.Counter("codec.stub.open.spans"); v != 1 {
		t.Fatalf("open.spans = %d, want 1", v)
	}
	if v := s.Counter("codec.stub.bytes_in"); v != 3 {
		t.Fatalf("bytes_in = %d, want 3", v)
	}
	if v := s.Counter("codec.stub.bytes_out"); v != 12 {
		t.Fatalf("bytes_out = %d, want 12", v)
	}
	if v := s.Counter("codec.stub.decode.chunks"); v != 3 {
		t.Fatalf("decode.chunks = %d, want 3", v)
	}
	if hv, ok := s.Histogram("codec.stub.decode.seconds"); !ok || hv.Count != 3 {
		t.Fatalf("decode.seconds count = %+v", hv)
	}
}

func TestInstrumentFormatErrors(t *testing.T) {
	clock := &trace.VirtualClock{}
	r := obs.NewRegistry()

	transient := fmt.Errorf("flaky read: %w", fault.Transient)
	f := obs.InstrumentFormat(stubFormat{openErr: transient}, r, clock)
	if _, err := f.Open([]byte{0}); !errors.Is(err, fault.Transient) {
		t.Fatalf("Open err = %v, want transient", err)
	}
	f = obs.InstrumentFormat(stubFormat{openErr: errors.New("bad magic")}, r, clock)
	if _, err := f.Open([]byte{0}); err == nil {
		t.Fatal("Open: no error")
	}
	f = obs.InstrumentFormat(stubFormat{decodeErr: errors.New("corrupt chunk")}, r, clock)
	cd, err := f.Open([]byte{0})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := cd.DecodeChunk(0, tensor.New(tensor.F32, 1)); err == nil {
		t.Fatal("DecodeChunk: no error")
	}

	s := r.Snapshot()
	for name, want := range map[string]int64{
		"codec.stub.errors.open.transient":   1,
		"codec.stub.errors.open.permanent":   1,
		"codec.stub.errors.decode.permanent": 1,
		"codec.stub.errors.decode.transient": 0,
		"codec.stub.bytes_out":               4, // only the successful Open
	} {
		if got := s.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestInstrumentFormatDisabled(t *testing.T) {
	f := stubFormat{}
	if got := obs.InstrumentFormat(f, nil, &trace.VirtualClock{}); got != codec.Format(f) {
		t.Fatal("nil registry should return the format untouched")
	}
	if got := obs.InstrumentFormat(f, obs.NewRegistry(), nil); got != codec.Format(f) {
		t.Fatal("nil clock should return the format untouched")
	}
	if got := obs.InstrumentFormat(nil, obs.NewRegistry(), &trace.VirtualClock{}); got != nil {
		t.Fatal("nil format should stay nil")
	}
}

func TestInstrumentFormatForwardsRecycle(t *testing.T) {
	var recycled int
	f := obs.InstrumentFormat(stubFormat{recycled: &recycled}, obs.NewRegistry(), &trace.VirtualClock{})
	cd, err := f.Open([]byte{1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok := cd.(codec.Recycler); !ok {
		t.Fatal("the instrumented decoder hides codec.Recycler")
	}
	codec.Recycle(cd)
	if recycled != 1 {
		t.Fatalf("inner decoder recycled %d times, want 1", recycled)
	}
}

// maxShape and probe lend stubFormat the optional shape capabilities.
type maxShape struct{}

func (maxShape) MaxShape() (tensor.DType, tensor.Shape) { return tensor.F16, tensor.Shape{64, 2} }

type probe struct{}

func (probe) ProbeShape(blob []byte) (tensor.DType, tensor.Shape, error) {
	return tensor.I16, tensor.Shape{2, len(blob)}, nil
}

func TestInstrumentFormatKeepsShapeCapabilities(t *testing.T) {
	blob := []byte{1, 2, 3}
	for _, f := range []codec.Format{
		stubFormat{},
		struct {
			stubFormat
			maxShape
		}{},
		struct {
			stubFormat
			probe
		}{},
		struct {
			stubFormat
			maxShape
			probe
		}{},
	} {
		w := obs.InstrumentFormat(f, obs.NewRegistry(), &trace.VirtualClock{})
		_, bounded := f.(codec.ShapeBounded)
		_, prober := f.(codec.ShapeProber)
		_, wBounded := w.(codec.ShapeBounded)
		_, wProber := w.(codec.ShapeProber)
		if wBounded != bounded || wProber != prober {
			t.Errorf("%T: wrapper bounded/prober %v/%v, format %v/%v", f, wBounded, wProber, bounded, prober)
		}
		dt, shape, ok := codec.MaxShape(f)
		wdt, wshape, wok := codec.MaxShape(w)
		if wdt != dt || !reflect.DeepEqual(wshape, shape) || wok != ok {
			t.Errorf("%T: MaxShape through the wrapper %v%v %v, bare %v%v %v", f, wdt, wshape, wok, dt, shape, ok)
		}
		dt, shape, err := codec.ProbeShape(f, blob)
		wdt, wshape, werr := codec.ProbeShape(w, blob)
		if err != nil || werr != nil || wdt != dt || !reflect.DeepEqual(wshape, shape) {
			t.Errorf("%T: ProbeShape through the wrapper %v%v (%v), bare %v%v (%v)", f, wdt, wshape, werr, dt, shape, err)
		}
	}
}

// TestHistogramQuantile pins the bucket-bound quantile: the smallest bound
// covering round(q*count) observations (at least one), +Inf past the last
// bound, 0 when empty.
func TestHistogramQuantile(t *testing.T) {
	var nilHist *obs.Histogram
	if got := nilHist.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
	h := obs.NewRegistry().Histogram("lag", []float64{0, 1, 2, 4})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for _, v := range []float64{0, 0, 1, 3, 3, 3, 3, 4, 4, 4} {
		h.Observe(v)
	}
	for q, want := range map[float64]float64{0: 0, 0.2: 0, 0.3: 1, 0.5: 4, 0.99: 4} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	h.Observe(9)
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("Quantile(0.99) past the last bound = %v, want +Inf", got)
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("Quantile(0.5) = %v, want 4", got)
	}
}
