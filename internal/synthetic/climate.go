// Package synthetic generates the stand-in datasets for the two MLPerf HPC
// workloads the paper studies.
//
// DeepCAM / CAM5: 16-channel 2D weather states (1152x768 FP32 in the paper,
// scalable here) with smooth latitudinal structure, mild sensor noise, and
// localized extreme-weather anomalies (cyclones, atmospheric rivers) that
// produce the abrupt transitions §V-A describes. Labels are per-pixel
// segmentation masks (background / cyclone / river), matching DeepCAM's
// semantic-segmentation task.
//
// CosmoFlow: 4-redshift 3D particle-count histograms (128^3 int16 voxels in
// the paper, scalable) driven by a shared smooth density field so that the
// four channels are highly coupled — the property §V-B exploits for
// group-lookup-table encoding — with a power-law value-frequency
// distribution (Fig 5a). Labels are the four governing cosmological
// parameters.
package synthetic

import (
	"fmt"
	"math"

	"scipp/internal/h5lite"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// ClimateConfig configures CAM5-like sample generation.
type ClimateConfig struct {
	Channels int // number of physical fields per sample (paper: 16)
	Height   int // latitude points (paper: 768)
	Width    int // longitude points (paper: 1152)

	Cyclones int     // extreme-weather bumps per sample (anomalous regions)
	Rivers   int     // atmospheric-river streaks per sample
	NoiseAmp float32 // white sensor-noise amplitude relative to field range

	Seed uint64 // base seed; sample index is mixed in per sample
}

// DefaultClimateConfig returns the paper-scale configuration.
func DefaultClimateConfig() ClimateConfig {
	return ClimateConfig{
		Channels: 16,
		Height:   768,
		Width:    1152,
		Cyclones: 3,
		Rivers:   2,
		NoiseAmp: 2e-4,
		Seed:     1,
	}
}

// Validate reports whether the configuration is usable.
func (c ClimateConfig) Validate() error {
	if c.Channels <= 0 || c.Height <= 0 || c.Width <= 0 {
		return fmt.Errorf("synthetic: invalid climate dims %dx%dx%d", c.Channels, c.Height, c.Width)
	}
	if c.NoiseAmp < 0 {
		return fmt.Errorf("synthetic: negative noise amplitude %g", c.NoiseAmp)
	}
	return nil
}

// ClimateSample is one CAM5-like training sample.
type ClimateSample struct {
	// Data is the [C, H, W] FP32 field stack.
	Data *tensor.Tensor
	// Labels is the [H, W] I16 segmentation mask:
	// 0 background, 1 cyclone, 2 atmospheric river.
	Labels *tensor.Tensor
}

type anomaly struct {
	cx, cy, sigma, amp float64
}

type streak struct {
	x0, y0, x1, y1, halfWidth, amp float64
}

// GenerateClimate produces sample number index under cfg. Generation is
// deterministic in (cfg.Seed, index).
func GenerateClimate(cfg ClimateConfig, index int) (*ClimateSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ (uint64(index)+1)*0x9E3779B97F4A7C15)
	c, h, w := cfg.Channels, cfg.Height, cfg.Width

	// Shared weather pattern: anomalies affect several channels coherently
	// (a cyclone shows in wind, pressure and humidity simultaneously).
	cyclones := make([]anomaly, cfg.Cyclones)
	for i := range cyclones {
		cyclones[i] = anomaly{
			cx:    rng.Float64() * float64(w),
			cy:    rng.Float64() * float64(h),
			sigma: 1.5 + rng.Float64()*3.5,
			amp:   3 + rng.Float64()*5,
		}
	}
	rivers := make([]streak, cfg.Rivers)
	for i := range rivers {
		x0 := rng.Float64() * float64(w)
		y0 := rng.Float64() * float64(h)
		ang := rng.Float64() * 2 * math.Pi
		length := float64(w) * (0.15 + 0.25*rng.Float64())
		rivers[i] = streak{
			x0: x0, y0: y0,
			x1: x0 + length*math.Cos(ang), y1: y0 + length*math.Sin(ang),
			halfWidth: 1.5 + rng.Float64()*2.5,
			amp:       2 + rng.Float64()*3,
		}
	}

	data := tensor.New(tensor.F32, c, h, w)
	labels := tensor.New(tensor.I16, h, w)

	for ch := 0; ch < c; ch++ {
		chRNG := rng.Split()
		genClimateChannel(chRNG, cfg, ch, cyclones, rivers, data.F32s[ch*h*w:(ch+1)*h*w])
	}

	// Label mask from the anomaly geometry (ground truth by construction).
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			idx := y*w + x
			for _, cy := range cyclones {
				dx, dy := float64(x)-cy.cx, float64(y)-cy.cy
				if dx*dx+dy*dy < (2*cy.sigma)*(2*cy.sigma) {
					labels.I16s[idx] = 1
				}
			}
			if labels.I16s[idx] == 0 {
				for _, rv := range rivers {
					if distToSegment(float64(x), float64(y), rv) < rv.halfWidth {
						labels.I16s[idx] = 2
					}
				}
			}
		}
	}
	return &ClimateSample{Data: data, Labels: labels}, nil
}

// genClimateChannel fills one [H, W] field. The construction mirrors the
// statistics the encoder exploits: values vary smoothly along x (longitude),
// carry a strong latitudinal profile, and have sharp localized anomalies.
func genClimateChannel(rng *xrand.RNG, cfg ClimateConfig, ch int, cyclones []anomaly, rivers []streak, out []float32) {
	h, w := cfg.Height, cfg.Width
	// Channel-specific scales: different physical fields have different
	// magnitudes (temperature ~250-310, pressure ~1e5, humidity ~0-0.02...).
	scale := math.Pow(10, float64(ch%5)-1) // 0.1 .. 1000
	offset := scale * (1 + rng.Float64())
	if ch%4 == 1 {
		// Wind-like fields are signed and zero-mean, so they cross zero
		// across the domain. These channels produce the near-zero values
		// whose FP16 emission dominates the lossy-encoding error tail
		// ("primarily for small values close to zero due to floating-point
		// denormalization", §V-A).
		offset = 0
	}

	// Low-frequency planetary waves: few long-wavelength modes dominate.
	const modes = 5
	type mode struct{ kx, ky, phase, amp float64 }
	ms := make([]mode, modes)
	for i := range ms {
		ms[i] = mode{
			kx:    (rng.Float64()*3 + 0.5) * 2 * math.Pi / float64(w),
			ky:    (rng.Float64()*5 + 0.5) * 2 * math.Pi / float64(h),
			phase: rng.Float64() * 2 * math.Pi,
			amp:   scale * (0.05 + 0.15*rng.Float64()) / float64(i+1),
		}
	}
	// Anomalies couple into channels with channel-dependent strength; wind
	// and pressure-like channels (ch%3==0) react strongest.
	coupling := 0.3
	if ch%3 == 0 {
		coupling = 1.0
	}

	// Moisture-like fields (precipitable water, humidity) are zero-inflated:
	// large dry regions sit at (near-)zero with only trace noise, while wet
	// regions carry smooth structure. The trace values are the "small values
	// close to zero" whose lossy encoding dominates the >10%-error tail of
	// §V-A.
	moisture := ch%4 == 2
	dryFloor := 0.35 * scale

	noise := cfg.NoiseAmp * float32(scale)
	for y := 0; y < h; y++ {
		lat := offset + 0.3*scale*math.Sin(math.Pi*float64(y)/float64(h))
		row := out[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			v := lat
			for _, m := range ms {
				v += m.amp * math.Sin(m.kx*float64(x)+m.phase) * math.Cos(m.ky*float64(y))
			}
			if moisture {
				// Sensor noise folds in before the dry clamp so dry regions
				// keep only the trace level below.
				v += float64(noise) * rng.NormFloat64()
				v -= offset + dryFloor
				if v < 0 {
					// Dry region: trace concentration noise near zero. For
					// the smallest-scale channel these values sit in the
					// FP16-subnormal band, where the decoder's half-precision
					// emission loses relative precision — the error tail the
					// paper measures at ~3% of values.
					v = 3e-6 * scale * math.Abs(rng.NormFloat64())
				}
			}
			row[x] = float32(v)
		}
		// Anomalies: evaluate only near their support for speed.
		for _, cyc := range cyclones {
			if dy := float64(y) - cyc.cy; dy*dy < 16*cyc.sigma*cyc.sigma {
				x0 := int(cyc.cx - 4*cyc.sigma)
				x1 := int(cyc.cx + 4*cyc.sigma)
				if x0 < 0 {
					x0 = 0
				}
				if x1 > w {
					x1 = w
				}
				for x := x0; x < x1; x++ {
					dx := float64(x) - cyc.cx
					r2 := (dx*dx + dy*dy) / (2 * cyc.sigma * cyc.sigma)
					row[x] += float32(coupling * cyc.amp * scale * 0.5 * math.Exp(-r2))
				}
			}
		}
		for _, rv := range rivers {
			for x := 0; x < w; x++ {
				d := distToSegment(float64(x), float64(y), rv)
				if d < 3*rv.halfWidth {
					row[x] += float32(coupling * rv.amp * scale * 0.1 *
						math.Exp(-d*d/(2*rv.halfWidth*rv.halfWidth)))
				}
			}
		}
		if noise > 0 && !moisture {
			for x := 0; x < w; x++ {
				row[x] += noise * float32(rng.NormFloat64())
			}
		}
	}
}

func distToSegment(px, py float64, s streak) float64 {
	vx, vy := s.x1-s.x0, s.y1-s.y0
	wx, wy := px-s.x0, py-s.y0
	c1 := vx*wx + vy*wy
	if c1 <= 0 {
		return math.Hypot(px-s.x0, py-s.y0)
	}
	c2 := vx*vx + vy*vy
	if c2 <= c1 {
		return math.Hypot(px-s.x1, py-s.y1)
	}
	t := c1 / c2
	return math.Hypot(px-(s.x0+t*vx), py-(s.y0+t*vy))
}

// ClimateToH5 packs a sample into an h5lite file the way CAM5 samples are
// stored in HDF5 (one "climate/data" stack plus "climate/labels").
func ClimateToH5(s *ClimateSample) *h5lite.File {
	f := h5lite.NewFile()
	f.Attrs["source"] = "scipp-synthetic-cam5"
	f.Put("climate/data", s.Data)
	f.Put("climate/labels", s.Labels)
	return f
}

// ClimateFromH5 unpacks a sample written by ClimateToH5.
//
//lint:ignore deadcode the inverse the synthetic tests check ClimateToH5 against
func ClimateFromH5(f *h5lite.File) (*ClimateSample, error) {
	data, ok := f.Get("climate/data")
	if !ok {
		return nil, fmt.Errorf("synthetic: h5 file missing climate/data")
	}
	labels, ok := f.Get("climate/labels")
	if !ok {
		return nil, fmt.Errorf("synthetic: h5 file missing climate/labels")
	}
	return &ClimateSample{Data: data, Labels: labels}, nil
}
