// Package stats implements the data-content analyses of §V of the paper:
// unique-value counting, value-frequency distributions with power-law
// fitting (Fig 5a), unique-group counting across redshift channels
// (Fig 5c), and the relative-error distributions used to validate the lossy
// DeepCAM encoding ("roughly 3% of the values with larger than 10% error").
package stats

import (
	"math"
	"sort"
)

// ValueFreq is one unique value and how many times it appears.
type ValueFreq struct {
	Value float32
	Count int
}

// UniqueValues returns the unique values in data with their frequencies,
// sorted by decreasing frequency (rank order, as in Fig 5a).
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func UniqueValues(data []float32) []ValueFreq {
	m := make(map[float32]int)
	for _, v := range data {
		m[v]++
	}
	out := make([]ValueFreq, 0, len(m))
	for v, c := range m {
		out = append(out, ValueFreq{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// UniqueInt16 returns the number of unique values in data.
func UniqueInt16(data []int16) int {
	m := make(map[int16]struct{}, 512)
	for _, v := range data {
		m[v] = struct{}{}
	}
	return len(m)
}

// UniqueInt16Freq returns unique int16 values with frequencies in rank order.
func UniqueInt16Freq(data []int16) []ValueFreq {
	m := make(map[int16]int, 512)
	for _, v := range data {
		m[v]++
	}
	out := make([]ValueFreq, 0, len(m))
	for v, c := range m {
		out = append(out, ValueFreq{Value: float32(v), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// GroupKey is a group of four values at the same voxel across the four
// redshift channels (Fig 5c).
type GroupKey [4]int16

// UniqueGroups counts the unique 4-groups across channels. channels must
// contain exactly four equal-length slices (the four redshifts).
func UniqueGroups(channels [4][]int16) int {
	n := len(channels[0])
	m := make(map[GroupKey]struct{}, 1<<14)
	for i := 0; i < n; i++ {
		m[GroupKey{channels[0][i], channels[1][i], channels[2][i], channels[3][i]}] = struct{}{}
	}
	return len(m)
}

// PowerLawFit holds the result of fitting count(rank) ≈ C * rank^-alpha.
type PowerLawFit struct {
	Alpha float64 // fitted exponent
	C     float64 // fitted scale
	R2    float64 // coefficient of determination of the log-log regression
}

// FitPowerLaw performs least-squares regression of log(count) on log(rank)
// over the rank-ordered frequencies. Ranks with zero count are skipped.
func FitPowerLaw(freqs []ValueFreq) PowerLawFit {
	var xs, ys []float64
	for i, f := range freqs {
		if f.Count <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(float64(f.Count)))
	}
	if len(xs) < 2 {
		return PowerLawFit{}
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return PowerLawFit{}
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	// R^2.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerLawFit{Alpha: -slope, C: math.Exp(intercept), R2: r2}
}

// ErrorStats summarizes elementwise relative error between a reference and a
// reconstruction.
type ErrorStats struct {
	N               int     // total values compared
	MaxRel          float64 // maximum relative error
	MeanRel         float64 // mean relative error
	FracAbove       float64 // fraction of values with relative error > threshold
	Threshold       float64 // the threshold used for FracAbove
	MaxAbs          float64 // maximum absolute error
	NearZeroAbove   int     // count of >threshold errors with |ref| < NearZeroCut
	NearZeroCut     float64 // the magnitude below which a value counts as near zero
	CountAboveThres int     // absolute count above threshold
}

// RelativeErrors compares recon against ref, using threshold for the
// "fraction above" statistic (the paper uses 10%). Values with |ref| == 0 use
// absolute error against the smallest-normal FP16 scale so zeros do not
// produce infinite relative errors. It panics if the slices differ in
// length (programmer invariant: both sides come from one round-trip).
func RelativeErrors(ref, recon []float32, threshold float64) ErrorStats {
	if len(ref) != len(recon) {
		panic("stats: length mismatch")
	}
	const nearZeroCut = 1e-3
	st := ErrorStats{N: len(ref), Threshold: threshold, NearZeroCut: nearZeroCut}
	if len(ref) == 0 {
		return st
	}
	var sumRel float64
	for i := range ref {
		r := float64(ref[i])
		d := math.Abs(float64(recon[i]) - r)
		if d > st.MaxAbs {
			st.MaxAbs = d
		}
		var rel float64
		if ar := math.Abs(r); ar > 0 {
			rel = d / ar
		} else if d > 0 {
			rel = 1 // a nonzero reconstruction of an exact zero: count as 100%
		}
		sumRel += rel
		if rel > st.MaxRel {
			st.MaxRel = rel
		}
		if rel > threshold {
			st.CountAboveThres++
			if math.Abs(r) < nearZeroCut {
				st.NearZeroAbove++
			}
		}
	}
	st.MeanRel = sumRel / float64(len(ref))
	st.FracAbove = float64(st.CountAboveThres) / float64(len(ref))
	return st
}

// Summary holds basic distribution statistics.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Std            float64
}

// Summarize computes min/max/mean/std of data.
func Summarize(data []float64) Summary {
	s := Summary{N: len(data)}
	if len(data) == 0 {
		return s
	}
	s.Min, s.Max = data[0], data[0]
	var sum float64
	for _, v := range data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(data)))
	return s
}

// Percentile returns the p-quantile (0..1) of data using linear
// interpolation on the sorted copy.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram builds a fixed-width histogram of data over [min, max] with
// nbins buckets; out-of-range values (including ±Inf) clamp into the edge
// buckets and NaN values are skipped. The clamping happens before the
// float-to-int conversion so ±Inf cannot overflow into the wrong bucket.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func Histogram(data []float64, min, max float64, nbins int) []int {
	h := make([]int, nbins)
	if max <= min || nbins == 0 {
		return h
	}
	w := (max - min) / float64(nbins)
	for _, v := range data {
		if math.IsNaN(v) {
			continue
		}
		var i int
		switch f := (v - min) / w; {
		case f < 0:
			i = 0
		case f >= float64(nbins):
			i = nbins - 1
		default:
			i = int(f)
		}
		h[i]++
	}
	return h
}
