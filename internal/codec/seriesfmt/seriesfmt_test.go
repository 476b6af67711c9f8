package seriesfmt

import (
	"testing"

	"scipp/internal/codec"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func record(t *testing.T, cfg synthetic.WeatherConfig, index int) ([]byte, *synthetic.WeatherSample) {
	t.Helper()
	s, err := synthetic.GenerateWeather(cfg, index)
	if err != nil {
		t.Fatal(err)
	}
	return synthetic.WeatherToRecord(s), s
}

func TestSeriesRoundTrip(t *testing.T) {
	cfg := synthetic.DefaultWeatherConfig()
	cfg.MaxLen = 48
	f, err := codec.Lookup("raw-series")
	if err != nil {
		t.Fatal(err)
	}
	for index := 0; index < 8; index++ {
		blob, s := record(t, cfg, index)
		d, err := f.Open(blob)
		if err != nil {
			t.Fatalf("index %d: %v", index, err)
		}
		wantShape := s.Data.Shape
		if !d.OutputShape().Equal(wantShape) || d.OutputDType() != tensor.F32 {
			t.Fatalf("index %d: decoder shape %v %v, want F32 %v", index, d.OutputDType(), d.OutputShape(), wantShape)
		}
		if d.NumChunks() != cfg.Channels {
			t.Fatalf("index %d: %d chunks, want %d", index, d.NumChunks(), cfg.Channels)
		}
		out, err := codec.Decode(d)
		if err != nil {
			t.Fatalf("index %d: %v", index, err)
		}
		if tensor.MaxAbsDiff(out, s.Data) != 0 {
			t.Fatalf("index %d: decoded series differs from generated", index)
		}
	}
}

func TestSeriesShapeVariesPerSample(t *testing.T) {
	cfg := synthetic.DefaultWeatherConfig()
	cfg.MinLen, cfg.MaxLen = 0, 64
	seen := map[int]bool{}
	for index := 0; index < 32; index++ {
		blob, _ := record(t, cfg, index)
		_, shape, err := codec.ProbeShape(Series(), blob)
		if err != nil {
			t.Fatal(err)
		}
		if want := synthetic.StationLen(cfg, index); shape[1] != want {
			t.Fatalf("index %d: probed length %d, want %d", index, shape[1], want)
		}
		seen[shape[1]] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct lengths over 32 stations: domain is not ragged", len(seen))
	}
	if !seen[0] && synthetic.StationLen(cfg, 0) != 0 {
		// Zero-length stations are admitted by the range; their presence is
		// index-dependent, so only assert the decode below.
		t.Log("no dead station in the first 32 indices")
	}
}

func TestSeriesEmptySampleDecodes(t *testing.T) {
	cfg := synthetic.DefaultWeatherConfig()
	cfg.MinLen, cfg.MaxLen = 0, 0 // every station is dead
	blob, s := record(t, cfg, 3)
	d, err := Series().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OutputShape().Equal(tensor.Shape{cfg.Channels, 0}) {
		t.Fatalf("empty station shape = %v", d.OutputShape())
	}
	out, err := codec.Decode(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Elems() != 0 {
		t.Fatalf("empty station decoded %d elems", out.Elems())
	}
	if s.Data.Elems() != 0 {
		t.Fatal("generator produced observations for a dead station")
	}
}

func TestSeriesBounded(t *testing.T) {
	f := Bounded(4, 256)
	dt, shape, ok := codec.MaxShape(f)
	if !ok || dt != tensor.F32 || !shape.Equal(tensor.Shape{4, 256}) {
		t.Fatalf("MaxShape = %v %v %v", dt, shape, ok)
	}
	// The bound never constrains decode: a record within the bound opens
	// with its own header shape.
	cfg := synthetic.DefaultWeatherConfig()
	blob, s := record(t, cfg, 5)
	d, err := f.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OutputShape().Equal(s.Data.Shape) {
		t.Fatalf("bounded open shape %v, want per-sample %v", d.OutputShape(), s.Data.Shape)
	}
}

func TestSeriesParams(t *testing.T) {
	cfg := synthetic.DefaultWeatherConfig()
	blob, s := record(t, cfg, 11)
	p, err := Params(blob)
	if err != nil {
		t.Fatal(err)
	}
	if p != s.Params {
		t.Fatalf("Params = %v, want %v", p, s.Params)
	}
	if _, err := Params([]byte{1, 2, 3}); err == nil {
		t.Error("truncated record did not error")
	}
}

func TestSeriesRejectsCorruptRecords(t *testing.T) {
	cfg := synthetic.DefaultWeatherConfig()
	blob, _ := record(t, cfg, 0)
	cases := map[string][]byte{
		"empty":     nil,
		"magic":     append([]byte{0, 0, 0, 0}, blob[4:]...),
		"truncated": blob[:len(blob)-1],
	}
	for name, bad := range cases {
		if _, err := Series().Open(bad); err == nil {
			t.Errorf("%s record opened", name)
		}
		if _, _, err := codec.ProbeShape(Series(), bad); err == nil {
			t.Errorf("%s record probed", name)
		}
	}
	d, err := Series().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DecodeChunk(-1, tensor.New(tensor.F32, 4)); err == nil {
		t.Error("out-of-range chunk decoded")
	}
	wrong := tensor.New(tensor.F32, 1)
	if err := d.DecodeChunk(0, wrong); err == nil {
		t.Error("wrong-shape destination accepted")
	}
	if w := d.Workload(); w.BytesIn != len(blob) || w.Chunks != cfg.Channels {
		t.Errorf("workload = %+v", w)
	}
}

// TestOpenRecycleAllocatesNothing pins the decoder pool: a steady
// Open+Recycle loop reuses one decoder instead of allocating per sample.
// The race detector makes sync.Pool drop a share of Puts at random, so the
// bound is below one allocation per cycle rather than exactly zero.
func TestOpenRecycleAllocatesNothing(t *testing.T) {
	blob, _ := record(t, synthetic.DefaultWeatherConfig(), 3)
	f := Series()
	if a := testing.AllocsPerRun(200, func() {
		d, err := f.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		codec.Recycle(d)
	}); a >= 1 {
		t.Fatalf("Open+Recycle allocates %.2f times per sample, want none", a)
	}
}
