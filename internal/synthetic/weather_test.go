package synthetic

import (
	"testing"

	"scipp/internal/tensor"
)

func TestWeatherDeterministicAndRagged(t *testing.T) {
	cfg := DefaultWeatherConfig()
	lengths := map[int]bool{}
	for index := 0; index < 24; index++ {
		a, err := GenerateWeather(cfg, index)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateWeather(cfg, index)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(a.Data, b.Data) != 0 || a.Params != b.Params {
			t.Fatalf("station %d not deterministic", index)
		}
		if got, want := a.Data.Shape[1], StationLen(cfg, index); got != want {
			t.Fatalf("station %d length %d, want StationLen %d", index, got, want)
		}
		if a.Data.Shape[0] != cfg.Channels {
			t.Fatalf("station %d has %d channels", index, a.Data.Shape[0])
		}
		lengths[a.Data.Shape[1]] = true
	}
	if len(lengths) < 8 {
		t.Errorf("only %d distinct lengths over 24 stations", len(lengths))
	}
}

func TestWeatherSeedChangesContent(t *testing.T) {
	cfg := DefaultWeatherConfig()
	cfg.MinLen, cfg.MaxLen = 32, 32 // pin the length so only values differ
	a, _ := GenerateWeather(cfg, 1)
	cfg.Seed = 99
	b, _ := GenerateWeather(cfg, 1)
	if tensor.MaxAbsDiff(a.Data, b.Data) == 0 {
		t.Error("different seeds generated identical stations")
	}
}

func TestWeatherRecordRoundTrip(t *testing.T) {
	cfg := DefaultWeatherConfig()
	for _, index := range []int{0, 1, 7} {
		s, err := GenerateWeather(cfg, index)
		if err != nil {
			t.Fatal(err)
		}
		rec := WeatherToRecord(s)
		c, l, err := WeatherHeader(rec)
		if err != nil {
			t.Fatal(err)
		}
		if c != cfg.Channels || l != s.Data.Shape[1] {
			t.Fatalf("header %dx%d, want %dx%d", c, l, cfg.Channels, s.Data.Shape[1])
		}
		got, err := WeatherFromRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(got.Data, s.Data) != 0 || got.Params != s.Params {
			t.Fatalf("station %d did not round-trip", index)
		}
	}
}

func TestWeatherLabel(t *testing.T) {
	s, err := GenerateWeather(DefaultWeatherConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	lb := s.Label()
	if lb.DT != tensor.F32 || !lb.Shape.Equal(tensor.Shape{4}) {
		t.Fatalf("label = %v %v", lb.DT, lb.Shape)
	}
	for i, p := range s.Params {
		if lb.F32s[i] != p {
			t.Fatalf("label[%d] = %g, want %g", i, lb.F32s[i], p)
		}
	}
}

func TestWeatherValidateAndHeaderRejects(t *testing.T) {
	bad := []WeatherConfig{
		{Channels: 0, MaxLen: 8},
		{Channels: 300, MaxLen: 8},
		{Channels: 4, MinLen: -1, MaxLen: 8},
		{Channels: 4, MinLen: 9, MaxLen: 8},
		{Channels: 4, MaxLen: 1 << 21},
		{Channels: 4, MaxLen: 8, NoiseAmp: -1},
	}
	for i, cfg := range bad {
		if _, err := GenerateWeather(cfg, 0); err == nil {
			t.Errorf("bad config %d generated", i)
		}
	}
	if _, _, err := WeatherHeader(nil); err == nil {
		t.Error("nil record parsed")
	}
	if _, _, err := WeatherHeader(make([]byte, 28)); err == nil {
		t.Error("zero-magic record parsed")
	}
	if _, err := WeatherFromRecord([]byte{1}); err == nil {
		t.Error("truncated record parsed")
	}
}

func TestStationLenRange(t *testing.T) {
	cfg := WeatherConfig{Channels: 1, MinLen: 5, MaxLen: 9, Seed: 3}
	for index := 0; index < 200; index++ {
		l := StationLen(cfg, index)
		if l < 5 || l > 9 {
			t.Fatalf("station %d length %d outside [5, 9]", index, l)
		}
	}
	pinned := WeatherConfig{Channels: 1, MinLen: 7, MaxLen: 7}
	if StationLen(pinned, 42) != 7 {
		t.Error("degenerate range did not pin the length")
	}
}
