// Package xrand provides a deterministic, splittable random number generator
// and the sampling distributions the synthetic data generators need
// (normal, log-normal, truncated power-law / Zipf).
//
// Everything in the repository that involves randomness — synthetic dataset
// generation, sample shuffling, weight initialization, dropout — draws from
// this package seeded explicitly, so every experiment is reproducible
// bit-for-bit from its seed.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a splitmix64-seeded xoshiro256** generator. The zero value is not
// valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a well-distributed internal state even for small or similar seeds.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r, advancing r once. Useful to
// give each sample / worker its own stream without correlation.
func (r *RNG) Split() *RNG { return New(r.Uint64()) }

// State returns the generator's internal state, for checkpointing a live
// stream mid-sequence.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state captured by State: the stream continues exactly
// where the captured generator left off. It panics on the all-zero state,
// which xoshiro256** can never reach from a valid seed and would emit zeros
// forever (programmer invariant: only feed back State output).
func (r *RNG) SetState(s [4]uint64) {
	if s == ([4]uint64{}) {
		panic("xrand: SetState with all-zero state")
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
//
//lint:ignore deadcode the codec fuzz and deltafp tests draw FP32 values with it
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns exp(mu + sigma*N(0,1)).
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipf samples from a truncated power-law (Zipf) distribution over [1, n].
// The CosmoFlow sample value-frequency distribution is a power law (Fig 5a);
// the cosmology generator uses this to draw particle counts.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler for P(k) ∝ k^-alpha, k in [1, n]. It panics if
// n < 1 (programmer invariant, matching Intn's contract).
//
//lint:ignore deadcode the stats and xrand tests draw power-law samples with it
func NewZipf(n int, alpha float64) *Zipf {
	if n < 1 {
		panic("xrand: Zipf with n < 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -alpha)
		cdf[k-1] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against FP drift
	return &Zipf{cdf: cdf}
}

// Sample draws one value in [1, n].
//
//lint:ignore deadcode the stats and xrand tests draw power-law samples with it
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
