package synthetic

import (
	"encoding/binary"
	"fmt"
	"math"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// Weather-station irregular time series: the variable-length domain.
// Each sample is one station's observation record — a
// [C, L] FP32 series whose length L differs per station (sensor outages,
// staggered commissioning dates, dead stations with zero observations) —
// which is exactly the shape irregularity MLPerf HPC reports real
// scientific archives having and which the fixed-shape pipeline never
// faced. Labels are four per-station climate normals, so the domain
// supports a regression task like CosmoFlow's parameter recovery.

// WeatherConfig configures weather-station sample generation.
type WeatherConfig struct {
	Channels int // sensor channels per station (paper-style: temp, pressure, humidity, wind)
	MinLen   int // shortest observation series; 0 admits dead stations
	MaxLen   int // longest observation series

	NoiseAmp float32 // per-observation sensor noise relative to channel scale

	Seed uint64 // base seed; station index is mixed in per sample
}

// DefaultWeatherConfig returns a small-archive configuration: four sensor
// channels and station records between 0 (a commissioned-but-dead station)
// and 256 observations.
func DefaultWeatherConfig() WeatherConfig {
	return WeatherConfig{
		Channels: 4,
		MinLen:   0,
		MaxLen:   256,
		NoiseAmp: 5e-3,
		Seed:     1,
	}
}

// Validate reports whether the configuration is usable.
func (c WeatherConfig) Validate() error {
	if c.Channels <= 0 || c.Channels > 255 {
		return fmt.Errorf("synthetic: invalid weather channel count %d", c.Channels)
	}
	if c.MinLen < 0 || c.MaxLen < c.MinLen || c.MaxLen > 1<<20 {
		return fmt.Errorf("synthetic: invalid weather length range [%d, %d]", c.MinLen, c.MaxLen)
	}
	if c.NoiseAmp < 0 {
		return fmt.Errorf("synthetic: negative noise amplitude %g", c.NoiseAmp)
	}
	return nil
}

// WeatherSample is one station's observation record.
type WeatherSample struct {
	// Data is the [C, L] FP32 series; L varies per station and may be 0.
	Data *tensor.Tensor
	// Params are the station's climate normals: mean temperature, diurnal
	// amplitude, warming trend per observation, and storm rate.
	Params [4]float32
}

// Label returns the sample's parameters as a [4] FP32 label tensor.
func (s *WeatherSample) Label() *tensor.Tensor {
	return tensor.FromF32([]float32{s.Params[0], s.Params[1], s.Params[2], s.Params[3]}, 4)
}

// StationLen returns the observation count of station index under cfg —
// deterministic in (cfg.Seed, index) and independent of the value stream,
// so schedulers can know a sample's length without generating it.
func StationLen(cfg WeatherConfig, index int) int {
	if cfg.MaxLen == cfg.MinLen {
		return cfg.MinLen
	}
	h := voxelHash(cfg.Seed^0x57535453, uint64(index)+1) // "WSTS"
	return cfg.MinLen + int(h%uint64(cfg.MaxLen-cfg.MinLen+1))
}

// GenerateWeather produces station number index under cfg. Generation is
// deterministic in (cfg.Seed, index).
func GenerateWeather(cfg WeatherConfig, index int) (*WeatherSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ (uint64(index)+1)*0x9E3779B97F4A7C15)
	c, l := cfg.Channels, StationLen(cfg, index)

	s := &WeatherSample{Data: tensor.New(tensor.F32, c, l)}
	// Station climate normals drive both the series and the label, so the
	// label is ground truth by construction (the ClimateSample pattern).
	meanTemp := 268 + 30*rng.Float64()     // Kelvin-ish site mean
	diurnal := 2 + 10*rng.Float64()        // daily swing amplitude
	trend := (rng.Float64() - 0.3) * 2e-3  // per-observation drift
	stormRate := 0.01 + 0.05*rng.Float64() // storm probability per step
	s.Params = [4]float32{float32(meanTemp), float32(diurnal), float32(trend), float32(stormRate)}

	phase := rng.Float64() * 2 * math.Pi
	for ch := 0; ch < c; ch++ {
		chRNG := rng.Split()
		// Channel scales echo the climate generator: different sensors,
		// different magnitudes (temperature ~3e2, pressure ~1e3, humidity
		// ~1e0, wind ~1e1), all coupled to the same site weather.
		scale := math.Pow(10, float64(ch%4)*0.75)
		row := s.Data.F32s[ch*l : (ch+1)*l]
		storm := 0.0
		for t := 0; t < l; t++ {
			if chRNG.Float64() < stormRate {
				storm = 1 + chRNG.Float64() // storm front decaying over steps
			}
			daily := diurnal * math.Sin(2*math.Pi*float64(t)/24+phase+float64(ch))
			v := (meanTemp/300)*scale + (daily+trend*float64(t)+3*storm)*scale/30
			v += float64(cfg.NoiseAmp) * scale * chRNG.NormFloat64()
			row[t] = float32(v)
			storm *= 0.82
		}
	}
	return s, nil
}

const weatherMagic = 0x57535243 // "WSRC"

// WeatherToRecord serializes a station record:
//
//	u32 magic | u16 channels | u16 reserved | u32 length |
//	4 x f32 params | C x L x f32 observations (LE)
func WeatherToRecord(s *WeatherSample) []byte {
	c, l := s.Data.Shape[0], s.Data.Shape[1]
	out := make([]byte, 12, 12+16+4*c*l)
	binary.LittleEndian.PutUint32(out[0:], weatherMagic)
	binary.LittleEndian.PutUint16(out[4:], uint16(c))
	binary.LittleEndian.PutUint32(out[8:], uint32(l))
	out = tensor.AppendLE(out, s.Params[:])
	return tensor.AppendLE(out, s.Data.F32s)
}

// WeatherHeader parses only a record's shape header: its channel count and
// series length. It is the shape-in-header probe the raw-series codec's
// ProbeShape rides on.
func WeatherHeader(rec []byte) (channels, length int, err error) {
	if len(rec) < 28 {
		return 0, 0, fmt.Errorf("synthetic: weather record too short (%d bytes)", len(rec))
	}
	if binary.LittleEndian.Uint32(rec[0:]) != weatherMagic {
		return 0, 0, fmt.Errorf("synthetic: bad weather record magic")
	}
	channels = int(binary.LittleEndian.Uint16(rec[4:]))
	length = int(binary.LittleEndian.Uint32(rec[8:]))
	if channels <= 0 {
		return 0, 0, fmt.Errorf("synthetic: weather record has no channels")
	}
	if length > 1<<20 {
		return 0, 0, fmt.Errorf("synthetic: implausible weather series length %d", length)
	}
	if want := 28 + 4*channels*length; len(rec) != want {
		return 0, 0, fmt.Errorf("synthetic: weather record length %d, want %d", len(rec), want)
	}
	return channels, length, nil
}

// WeatherFromRecord parses a payload written by WeatherToRecord.
//
//lint:ignore deadcode the inverse the synthetic tests check WeatherToRecord against
func WeatherFromRecord(rec []byte) (*WeatherSample, error) {
	c, l, err := WeatherHeader(rec)
	if err != nil {
		return nil, err
	}
	s := &WeatherSample{Data: tensor.New(tensor.F32, c, l)}
	tensor.DecodeLE(s.Params[:], rec[12:])
	tensor.DecodeLE(s.Data.F32s, rec[28:])
	return s, nil
}
