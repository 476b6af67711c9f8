package fp16

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h Bits
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{0.25, 0x3400},
		{1.5, 0x3E00},
		{65504, 0x7BFF},                  // max finite
		{-65504, 0xFBFF},                 // min finite
		{6.103515625e-05, 0x0400},        // smallest normal
		{5.9604644775390625e-08, 0x0001}, // smallest subnormal
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := c.h.ToFloat32(); got != c.f {
			t.Errorf("Bits(%#04x).ToFloat32() = %g, want %g", c.h, got, c.f)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(65520); got != PositiveInfinity {
		// 65520 is the rounding boundary: rounds to 65536 which overflows.
		t.Errorf("FromFloat32(65520) = %#04x, want +Inf", got)
	}
	if got := FromFloat32(1e10); got != PositiveInfinity {
		t.Errorf("FromFloat32(1e10) = %#04x, want +Inf", got)
	}
	if got := FromFloat32(-1e10); got != NegativeInfinity {
		t.Errorf("FromFloat32(-1e10) = %#04x, want -Inf", got)
	}
	// 65519.996 rounds down to 65504 and must stay finite.
	if got := FromFloat32(65519); got != 0x7BFF {
		t.Errorf("FromFloat32(65519) = %#04x, want 0x7BFF", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	tiny := float32(1e-10)
	if got := FromFloat32(tiny); got != 0 {
		t.Errorf("FromFloat32(%g) = %#04x, want +0", tiny, got)
	}
	if got := FromFloat32(-tiny); got != 0x8000 {
		t.Errorf("FromFloat32(%g) = %#04x, want -0", -tiny, got)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("FromFloat32(NaN) = %#04x, not NaN", h)
	}
	f := h.ToFloat32()
	if !math.IsNaN(float64(f)) {
		t.Errorf("NaN did not survive round trip: %g", f)
	}
	if QuietNaN.ToFloat32() == QuietNaN.ToFloat32() {
		t.Error("QuietNaN compares equal to itself as float")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; ties go to even
	// mantissa (0), i.e. down to 1.0.
	f := float32(1 + math.Ldexp(1, -11))
	if got := FromFloat32(f); got != 0x3C00 {
		t.Errorf("halfway tie: got %#04x, want 0x3C00 (1.0)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; tie to even rounds up
	// to 1+2^-9 (mantissa 2).
	f = float32(1 + 3*math.Ldexp(1, -11))
	if got := FromFloat32(f); got != 0x3C02 {
		t.Errorf("halfway tie up: got %#04x, want 0x3C02", got)
	}
	// Just above halfway rounds up.
	f = float32(1 + math.Ldexp(1, -11) + math.Ldexp(1, -20))
	if got := FromFloat32(f); got != 0x3C01 {
		t.Errorf("above halfway: got %#04x, want 0x3C01", got)
	}
}

func TestSubnormalRounding(t *testing.T) {
	// Halfway between 0 and the smallest subnormal rounds to even (zero).
	f := float32(math.Ldexp(1, -25))
	if got := FromFloat32(f); got != 0 {
		t.Errorf("2^-25 should round to +0, got %#04x", got)
	}
	// Slightly above rounds to the smallest subnormal.
	f = float32(math.Ldexp(1, -25) * 1.0001)
	if got := FromFloat32(f); got != 1 {
		t.Errorf("just above 2^-25 should round to 0x0001, got %#04x", got)
	}
	// Subnormal that rounds up into the normal range.
	f = SmallestNormal - SmallestSubnormal/4
	if got := FromFloat32(f); got != 0x0400 {
		t.Errorf("near-normal subnormal should round to smallest normal, got %#04x", got)
	}
}

func TestAllBitsRoundTrip(t *testing.T) {
	// Every non-NaN binary16 value must survive fp16 -> fp32 -> fp16 exactly.
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		if h.IsNaN() {
			continue
		}
		f := h.ToFloat32()
		back := FromFloat32(f)
		if back != h {
			t.Fatalf("bits %#04x -> %g -> %#04x not identity", h, f, back)
		}
	}
}

func TestMonotonicity(t *testing.T) {
	// ToFloat32 must be strictly increasing over positive bit patterns.
	prev := Bits(0).ToFloat32()
	for i := 1; i < 0x7C00; i++ {
		cur := Bits(i).ToFloat32()
		if cur <= prev {
			t.Fatalf("not monotonic at %#04x: %g <= %g", i, cur, prev)
		}
		prev = cur
	}
}

func TestQuickRoundTripError(t *testing.T) {
	// Property: for finite in-range inputs the round-trip relative error is
	// bounded by 2^-11 (half ULP of the 10-bit mantissa).
	f := func(u uint32) bool {
		x := math.Float32frombits(u)
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax > float64(MaxValue) || ax < float64(SmallestNormal) {
			return true // out of the normal range; covered elsewhere
		}
		y := RoundTrip32(x)
		rel := math.Abs(float64(y)-float64(x)) / ax
		return rel <= math.Ldexp(1, -11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestQuickOrderPreserving(t *testing.T) {
	// Property: conversion preserves <= ordering.
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		fa, fb := RoundTrip32(a), RoundTrip32(b)
		if a <= b {
			return fa <= fb
		}
		return fa >= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestSliceKernels(t *testing.T) {
	src := []float32{0, 1, -2.5, 3.14159, 65504, 1e-8}
	dst := make([]Bits, len(src))
	FromSlice(dst, src)
	back := make([]float32, len(src))
	ToSlice(back, dst)
	for i := range src {
		want := RoundTrip32(src[i])
		if back[i] != want {
			t.Errorf("slice kernel idx %d: got %g want %g", i, back[i], want)
		}
	}
}

func TestIsInfNeg(t *testing.T) {
	if !PositiveInfinity.IsInf(1) || !PositiveInfinity.IsInf(0) || PositiveInfinity.IsInf(-1) {
		t.Error("PositiveInfinity IsInf misclassified")
	}
	if !NegativeInfinity.IsInf(-1) || !NegativeInfinity.IsInf(0) || NegativeInfinity.IsInf(1) {
		t.Error("NegativeInfinity IsInf misclassified")
	}
	if PositiveInfinity.Neg() != NegativeInfinity {
		t.Error("Neg of +Inf is not -Inf")
	}
	if QuietNaN.IsInf(0) {
		t.Error("NaN reported as Inf")
	}
}

func TestULP(t *testing.T) {
	if got := FromFloat32(1).ULP(); got != float32(math.Ldexp(1, -10)) {
		t.Errorf("ULP(1.0) = %g, want 2^-10", got)
	}
	if got := Bits(0x0001).ULP(); got != SmallestSubnormal {
		t.Errorf("ULP(subnormal) = %g, want smallest subnormal", got)
	}
	if !math.IsNaN(float64(PositiveInfinity.ULP())) {
		t.Error("ULP(+Inf) should be NaN")
	}
}

// matchesRef checks FromFloat32, and Narrow wherever its flag says its
// result stands, against the case-by-case reference on the FP32 pattern b,
// and that Narrow flags exactly the magnitudes from 65520 up.
func matchesRef(t *testing.T, b uint32) {
	t.Helper()
	f := math.Float32frombits(b)
	want := fromFloat32Ref(f)
	if got := FromFloat32(f); got != want {
		t.Fatalf("FromFloat32(%#08x) = %#04x, reference %#04x", b, got, want)
	}
	h, over := Narrow(f)
	if flagged := int32(over) < 0; flagged != (b&0x7FFFFFFF >= 0x477FF000) {
		t.Fatalf("Narrow(%#08x) flags out-of-range %v", b, flagged)
	} else if !flagged && h != want {
		t.Fatalf("Narrow(%#08x) = %#04x, reference %#04x", b, h, want)
	}
}

// TestFastPathMatchesReference compares FromFloat32 and Narrow with the
// case-by-case reference at every rounding boundary class:
//
//   - over every sign, every FP32 exponent and every kept-mantissa value,
//     the classes of the 13 bits a normal result drops: zero, just above
//     zero, just below the tie, the tie, just above it, all ones;
//   - for each exponent whose results are subnormal or zero (inputs in
//     [2^-25, 2^-14), which drop 14..24 significand bits), the same classes
//     of that exponent's own dropped bits, over every kept value, odd and
//     even.
func TestFastPathMatchesReference(t *testing.T) {
	dropped := [...]uint32{0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF}
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for kept := uint32(0); kept < 1024; kept++ {
				for _, d := range dropped {
					matchesRef(t, sign<<31|exp<<23|kept<<13|d)
				}
			}
		}
		for exp := uint32(102); exp <= 112; exp++ {
			// The 24-bit significand (implicit bit 23 included) counts
			// units of 2^(exp-150); the result counts units of 2^-24.
			shift := 126 - exp
			half := uint32(1) << (shift - 1)
			for kept := uint32(1<<23) >> shift; kept <= (1<<24-1)>>shift; kept++ {
				for _, d := range [...]uint32{0, 1, half - 1, half, half + 1, 2*half - 1} {
					if sig := kept<<shift | d; sig>>23 == 1 {
						matchesRef(t, sign<<31|exp<<23|sig&0x7FFFFF)
					}
				}
			}
		}
	}
}

// TestNarrowExhaustive checks every FP32 pattern below 65520 in magnitude,
// both signs, 2.4 G inputs in all, one parallel subtest per FP32 exponent.
// Coverage instrumentation slows it as much as -race does (≈ 16 s becomes
// ≈ 4.5 min on 2 cores), and it reaches no statement that
// TestFastPathMatchesReference leaves out, so a -cover run skips it too.
func TestNarrowExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled || testing.CoverMode() != "" {
		t.Skip("exhaustive sweep: skipped under -short, -race and -cover")
	}
	const limit = 0x477FF000 // 65520
	for exp := uint32(0); exp<<23 < limit; exp++ {
		t.Run(fmt.Sprintf("exp%03d", exp), func(t *testing.T) {
			t.Parallel()
			for a := exp << 23; a < min((exp+1)<<23, limit); a++ {
				for _, b := range [2]uint32{a, a | 1<<31} {
					f := math.Float32frombits(b)
					want := fromFloat32Ref(f)
					if h, over := Narrow(f); int32(over) < 0 || h != want || FromFloat32(f) != want {
						t.Fatalf("%#08x: Narrow = %#04x (flag %#08x), FromFloat32 = %#04x, reference %#04x",
							b, h, over, FromFloat32(f), want)
					}
				}
			}
		})
	}
}

// TestFromSliceExhaustive converts every FP32 pattern, 4.3 G in all, with
// FromSlice into dst at an odd offset, in runs whose lengths cycle through
// every remainder mod 8 (so the hardware body's one-at-a-time tail runs for
// 0..7 values), and compares each result with the reference. One parallel
// subtest per sign and exponent; skipped as TestNarrowExhaustive is.
func TestFromSliceExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled || testing.CoverMode() != "" {
		t.Skip("exhaustive sweep: skipped under -short, -race and -cover")
	}
	for top := uint32(0); top < 512; top++ {
		t.Run(fmt.Sprintf("%03x", top), func(t *testing.T) {
			t.Parallel()
			src := make([]float32, 4096)
			out := make([]Bits, 1+len(src))
			dst := out[1:]
			next, run := top<<23, 0
			for end := next + 1<<23 - 1; ; run++ {
				n := min(len(src)-run%8, int(end-next)+1)
				for i := range src[:n] {
					src[i] = math.Float32frombits(next + uint32(i))
				}
				FromSlice(dst, src[:n])
				for i, f := range src[:n] {
					if want := fromFloat32Ref(f); dst[i] != want {
						t.Fatalf("%#08x: FromSlice = %#04x, reference %#04x", math.Float32bits(f), dst[i], want)
					}
				}
				if next+uint32(n)-1 == end {
					return
				}
				next += uint32(n)
			}
		})
	}
}

// sliceInputs is a mixed batch for the slice-kernel tests: every special
// class (signed zeros, subnormal and overflow boundaries, infinities,
// signaling and quiet NaNs of both signs with payloads) between values from
// a fixed multiplicative sequence over all bit patterns.
func sliceInputs() []float32 {
	special := []uint32{
		0, 0x80000000, 0x33000000, 0x33000001, 0x387FE000, 0x387FF000, 0x38800000,
		0x477FEFFF, 0x477FF000, 0xC77FF000, 0x7F7FFFFF, 0x7F800000, 0xFF800000,
		0x7F800001, 0xFF812345, 0x7FC01234, 0xFFFFFFFF, 0x3F801000, 0x3F803000,
	}
	var in []float32
	x := uint32(1)
	for _, b := range special {
		for k := 0; k < 3; k++ {
			x = x*2654435761 + 12345
			in = append(in, math.Float32frombits(x))
		}
		in = append(in, math.Float32frombits(b))
	}
	return in
}

// checkFromSlice runs a FromSlice body over every length 0..len(src) at
// dst offsets 0..3 and requires FromFloat32's result for each value, with
// the values around the written range left alone.
func checkFromSlice(t *testing.T, name string, body func([]Bits, []float32)) {
	t.Helper()
	src := sliceInputs()
	const guard = Bits(0x1234)
	out := make([]Bits, len(src)+5)
	for off := 0; off < 4; off++ {
		for n := 0; n <= len(src); n++ {
			for i := range out {
				out[i] = guard
			}
			body(out[off:off+n], src[:n])
			for i, h := range out {
				want := guard
				if i >= off && i < off+n {
					want = FromFloat32(src[i-off])
				}
				if h != want {
					t.Fatalf("%s: offset %d, length %d: out[%d] = %#04x, want %#04x", name, off, n, i, h, want)
				}
			}
		}
	}
}

// TestFromSliceBodies checks FromSlice as built and its portable body,
// called directly so that the hardware build covers it too.
func TestFromSliceBodies(t *testing.T) {
	checkFromSlice(t, "FromSlice", FromSlice)
	checkFromSlice(t, "fromSlicePortable", fromSlicePortable)
}

func FuzzFromFloat32(f *testing.F) {
	for _, b := range []uint32{0, 0x80000000, 0x387FF000, 0x38800000, 0x477FF000, 0x477FEFFF, 0x7F800001, 0x3F801000} {
		f.Add(b)
	}
	f.Fuzz(matchesRef)
}

// BenchmarkFromFloat32 converts 4096 values whose results are normal,
// subnormal, or a mix near the climate stacks' 14–16% share of subnormals
// (one in eight, scattered).
func BenchmarkFromFloat32(b *testing.B) {
	normal := func(i int) float32 { return 1 + float32(i)*0.37 }
	subnormal := func(i int) float32 { return float32(i) * 1.4e-8 } // below 2^-14
	for _, bc := range []struct {
		name string
		gen  func(int) float32
	}{
		{"normal", normal},
		{"subnormal", subnormal},
		{"mixed", func(i int) float32 {
			if uint32(i)*2654435761>>29 == 0 { // a multiplicative hash: 1 in 8
				return subnormal(i)
			}
			return normal(i)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := make([]float32, 4096)
			for i := range src {
				src[i] = bc.gen(i)
			}
			dst := make([]Bits, len(src))
			b.SetBytes(int64(len(src) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromSlice(dst, src)
			}
		})
	}
}

func BenchmarkToFloat32(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i * 7)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToSlice(dst, src)
	}
}
