package synthetic

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// CosmoConfig configures cosmology sample generation.
type CosmoConfig struct {
	Dim      int // voxels per side (paper: 128)
	MaxCount int // particle-count clip (keeps counts in int16; paper data ~O(100s))
	Waves    int // plane-wave modes in the underlying density field
	Seed     uint64
}

// DefaultCosmoConfig returns the paper-scale configuration.
func DefaultCosmoConfig() CosmoConfig {
	return CosmoConfig{Dim: 128, MaxCount: 600, Waves: 18, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c CosmoConfig) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("synthetic: invalid cosmo dim %d", c.Dim)
	}
	if c.MaxCount <= 0 || c.MaxCount > math.MaxInt16 {
		return fmt.Errorf("synthetic: invalid max count %d", c.MaxCount)
	}
	if c.Waves <= 0 {
		return fmt.Errorf("synthetic: invalid wave count %d", c.Waves)
	}
	return nil
}

// CosmoSample is one 4-redshift universe sub-volume.
type CosmoSample struct {
	Dim int
	// Channels holds the four redshift snapshots, each Dim^3 particle
	// counts in x-fastest order.
	Channels [4][]int16
	// Params are the four governing cosmological parameters, the training
	// labels (normalized to the +-30% spread of §V-B).
	Params [4]float32
}

// redshift growth schedule: clustering concentrates as z -> 0 (Fig 3's
// "progressive clustering with localized evolution").
var growth = [4]float64{0.55, 0.75, 0.95, 1.25}

// GenerateCosmo produces universe sub-volume number index under cfg,
// deterministic in (cfg.Seed, index).
func GenerateCosmo(cfg CosmoConfig, index int) (*CosmoSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ (uint64(index)+1)*0xBF58476D1CE4E5B9)
	d := cfg.Dim

	s := &CosmoSample{Dim: d}
	// Cosmological parameters uniform in [-0.3, 0.3] around the mean (the
	// paper varies them over a 30% spread); stored normalized to [-1, 1].
	var omegaM, sigma8, ns, h0 float64
	s.Params[0] = float32(2*rng.Float64() - 1) // Omega_m deviation
	s.Params[1] = float32(2*rng.Float64() - 1) // sigma_8 deviation
	s.Params[2] = float32(2*rng.Float64() - 1) // n_s deviation
	s.Params[3] = float32(2*rng.Float64() - 1) // H_0 deviation
	omegaM = 1 + 0.3*float64(s.Params[0])
	sigma8 = 1 + 0.3*float64(s.Params[1])
	ns = 1 + 0.3*float64(s.Params[2])
	h0 = 1 + 0.3*float64(s.Params[3])

	// Underlying matter density field: a sum of random plane waves with a
	// red (low-k-weighted) spectrum whose tilt follows n_s. All four
	// redshifts share this field, which is what couples the channels.
	type wave struct{ kx, ky, kz, phase, amp float64 }
	waves := make([]wave, cfg.Waves)
	var norm float64
	for i := range waves {
		k := 0.5 + rng.Float64()*4 // modes per box edge
		theta := math.Acos(2*rng.Float64() - 1)
		phi := rng.Float64() * 2 * math.Pi
		amp := math.Pow(k, -0.5*ns) // red spectrum
		waves[i] = wave{
			kx:    2 * math.Pi * k * math.Sin(theta) * math.Cos(phi) / float64(d),
			ky:    2 * math.Pi * k * math.Sin(theta) * math.Sin(phi) / float64(d),
			kz:    2 * math.Pi * k * math.Cos(theta) / float64(d),
			phase: rng.Float64() * 2 * math.Pi,
			amp:   amp,
		}
		norm += amp * amp / 2
	}
	fieldScale := sigma8 / math.Sqrt(norm)

	for c := range s.Channels {
		s.Channels[c] = make([]int16, d*d*d)
	}

	// Per-voxel mean occupancy at each redshift: n_z = A * exp(g_z * delta)
	// clipped to MaxCount, minus 1 so voids are zero. Growth g_z scales with
	// Omega_m (more matter, stronger clustering) and redshift.
	baseAmp := 1.6 * h0
	maxC := float64(cfg.MaxCount)
	// jitterSeed decorrelates the per-voxel discreteness noise between
	// samples without requiring a per-voxel RNG stream.
	jitterSeed := rng.Uint64()

	workers := runtime.GOMAXPROCS(0)
	if workers > d {
		workers = d
	}
	var wg sync.WaitGroup
	chunk := (d + workers - 1) / workers
	for w0 := 0; w0 < d; w0 += chunk {
		z0, z1 := w0, w0+chunk
		if z1 > d {
			z1 = d
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for z := z0; z < z1; z++ {
				for y := 0; y < d; y++ {
					base := (z*d + y) * d
					for x := 0; x < d; x++ {
						var delta float64
						for _, wv := range waves {
							delta += wv.amp * math.Cos(wv.kx*float64(x)+wv.ky*float64(y)+wv.kz*float64(z)+wv.phase)
						}
						delta *= fieldScale
						idx := base + x
						hv := voxelHash(jitterSeed, uint64(idx))
						for c := 0; c < 4; c++ {
							g := growth[c] * omegaM
							mean := baseAmp * math.Exp(g*delta*3)
							n := math.Round(mean) - 1
							if n > 0 {
								// Discreteness jitter: +-1 depending on a
								// per-(voxel, channel) hash bit pair. This is
								// what multiplies distinct 4-groups beyond
								// distinct quantized densities (Fig 5c).
								j := int64((hv>>(2*uint(c)))&3) - 1
								if j > 1 {
									j = 0
								}
								n += float64(j)
							}
							if n < 0 {
								n = 0
							}
							if n > maxC {
								n = maxC
							}
							s.Channels[c][idx] = int16(n)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return s, nil
}

// voxelHash is a cheap 64-bit mix for per-voxel jitter.
func voxelHash(seed, idx uint64) uint64 {
	z := seed + idx*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const cosmoMagic = 0x43534D46 // "CSMF"

// CosmoToRecord serializes a sample into a TFRecord payload:
//
//	u32 magic | u32 dim | 4 x f32 params | 4 x dim^3 x i16 counts (LE)
func CosmoToRecord(s *CosmoSample) []byte {
	d := s.Dim
	n := d * d * d
	out := make([]byte, 8, 4+4+16+4*n*2)
	binary.LittleEndian.PutUint32(out[0:], cosmoMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(d))
	out = tensor.AppendLE(out, s.Params[:])
	for _, ch := range s.Channels {
		out = tensor.AppendLE(out, ch)
	}
	return out
}

// CosmoFromRecord parses a payload written by CosmoToRecord.
func CosmoFromRecord(rec []byte) (*CosmoSample, error) {
	if len(rec) < 24 {
		return nil, fmt.Errorf("synthetic: cosmo record too short (%d bytes)", len(rec))
	}
	if binary.LittleEndian.Uint32(rec[0:]) != cosmoMagic {
		return nil, fmt.Errorf("synthetic: bad cosmo record magic")
	}
	d := int(binary.LittleEndian.Uint32(rec[4:]))
	if d <= 0 || d > 4096 {
		return nil, fmt.Errorf("synthetic: implausible cosmo dim %d", d)
	}
	n := d * d * d
	if len(rec) != 24+4*n*2 {
		return nil, fmt.Errorf("synthetic: cosmo record length %d, want %d", len(rec), 24+4*n*2)
	}
	s := &CosmoSample{Dim: d}
	tensor.DecodeLE(s.Params[:], rec[8:])
	for c := range s.Channels {
		s.Channels[c] = make([]int16, n)
		tensor.DecodeLE(s.Channels[c], rec[24+2*n*c:])
	}
	return s, nil
}

// RawBytes returns the in-memory FP32 size of the sample as the baseline
// pipeline materializes it (4 channels of dim^3 float32).
//
//lint:ignore deadcode the lut and synthetic tests and the root benchmarks take raw cosmology bytes with it
func (s *CosmoSample) RawBytes() int { return 4 * s.Dim * s.Dim * s.Dim * 4 }

// StoredBytes returns the int16 on-disk payload size.
func (s *CosmoSample) StoredBytes() int { return 4 * s.Dim * s.Dim * s.Dim * 2 }
