// Package fp16 implements IEEE 754 binary16 (half-precision) conversion and
// slice kernels.
//
// The paper's decoders emit half-precision samples to feed mixed-precision
// training pipelines ("a floating-point format not supported by the
// decompression frameworks we are aware of", §III). Go has no native float16,
// so this package provides software conversion with round-to-nearest-even,
// full denormal support, and Inf/NaN propagation, plus bulk conversion
// kernels used on the (simulated) accelerator and host decode paths. The
// FP32-to-binary16 bulk kernel uses the hardware conversion (F16C) where the
// CPU has it, as the paper's decoders do.
package fp16

import "math"

// Bits is a raw IEEE 754 binary16 value. The zero value is +0.
type Bits uint16

const (
	// PositiveInfinity and NegativeInfinity are the binary16 infinities.
	PositiveInfinity Bits = 0x7C00
	NegativeInfinity Bits = 0xFC00
	// QuietNaN is a canonical binary16 NaN.
	QuietNaN Bits = 0x7E00

	signMask16 = 0x8000
	expMask16  = 0x7C00
	manMask16  = 0x03FF

	// MaxValue is the largest finite binary16 value (65504).
	MaxValue float32 = 65504
	// SmallestNormal is the smallest positive normal binary16 value (2^-14).
	SmallestNormal float32 = 6.103515625e-05
	// SmallestSubnormal is the smallest positive binary16 value (2^-24).
	SmallestSubnormal float32 = 5.9604644775390625e-08
)

// FromFloat32 converts an FP32 value to binary16 with round-to-nearest-even.
// Values exceeding the binary16 range become infinities; NaN payload top bit
// is forced so NaNs stay NaNs.
//
// Every finite input below 65520 in magnitude takes Narrow's branch-free
// path; the rest (overflow to Inf, Inf, NaN) fall through to
// fromFloat32Ref.
func FromFloat32(f float32) Bits {
	h, over := Narrow(f)
	if int32(over) < 0 {
		return fromFloat32Ref(f)
	}
	return h
}

// Narrow is FromFloat32 without its out-of-range branch, small enough to
// inline into a decode loop. The second result has its sign bit set iff
// |f| >= 65520 or f is Inf or NaN; the first result is then meaningless and
// the caller must discard it (FromFloat32 gives the right answer). A loop
// can OR the second results together and test the sign bit once.
//
// Both candidates for the first result are computed unconditionally, so the
// compiler selects one with a conditional move rather than a branch:
//
//   - Normal results, |f| in [2^-14, 65520): adding 0xFFF plus the kept
//     mantissa's low bit to the magnitude bits carries into bit 13 exactly
//     when round-to-nearest-even rounds up (and on into the exponent when
//     the mantissa overflows, which is the correct next binade); the shift
//     drops the 13 surplus bits and subtracting 112<<10 rebiases 127 -> 15.
//   - Subnormal and zero results, |f| < 2^-14: in |f| + 0.5 the FP32 ulp is
//     2^-24, the binary16 subnormal spacing, so the hardware add rounds |f|
//     to that grid with round-to-nearest-even and leaves the count of 2^-24
//     steps in the mantissa bits above 0.5 = 0x3F000000. A count of 0x400
//     is 2^-14, and 0x400 is also the smallest normal's encoding.
func Narrow(f float32) (Bits, uint32) {
	b := math.Float32bits(f)
	a := b & 0x7FFFFFFF
	h := (a+0xFFF+a>>13&1)>>13 - 112<<10
	sub := math.Float32bits(math.Float32frombits(a)+0.5) - 0x3F000000
	if a < 0x38800000 { // 2^-14
		h = sub
	}
	// 0x477FF000 is 65520: a >= it sets bit 31 of the sum.
	return Bits(b>>16)&signMask16 | Bits(h), a + (0x80000000 - 0x477FF000)
}

// fromFloat32Ref is the case-by-case conversion: the slow path of
// FromFloat32 and the reference its fast path is tested against.
func fromFloat32Ref(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if man != 0 {
			// NaN: keep top mantissa bits, force quiet bit.
			return sign | expMask16 | 0x0200 | Bits(man>>13)
		}
		return sign | expMask16
	case exp == 0 && man == 0: // signed zero
		return sign
	}

	// Unbiased exponent.
	e := exp - 127
	switch {
	case e > 15: // overflow -> Inf
		return sign | expMask16
	case e >= -14: // normal range
		m := man >> 13
		// Round to nearest even on the 13 dropped bits.
		rem := man & 0x1FFF
		half := uint32(0x1000)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		h := (uint32(e+15) << 10) + m // mantissa carry may bump exponent; that is correct
		if h >= 0x7C00 {
			return sign | expMask16
		}
		return sign | Bits(h)
	case e >= -25: // subnormal range (incl. values that may round up to 2^-24)
		// Implicit leading 1 becomes explicit; shift right by the deficit.
		man |= 0x800000
		shift := uint32(-e - 14 + 13) // total bits dropped
		m := man >> shift
		dropped := man & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if dropped > half || (dropped == half && m&1 == 1) {
			m++
		}
		// m may round up to the smallest normal; the encoding is contiguous
		// so simple addition is still correct.
		return sign | Bits(m)
	default: // underflow to signed zero
		return sign
	}
}

// ToFloat32 converts a binary16 value to FP32 exactly (every binary16 value
// is representable in FP32).
func (h Bits) ToFloat32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	man := uint32(h & manMask16)

	switch {
	case exp == 0x1F: // Inf/NaN
		return math.Float32frombits(sign | 0x7F800000 | man<<13)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	case man != 0: // subnormal: value = man * 2^-24
		// Normalize into FP32.
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= manMask16
		return math.Float32frombits(sign | e<<23 | man<<13)
	default: // signed zero
		return math.Float32frombits(sign)
	}
}

// IsNaN reports whether h is a NaN.
func (h Bits) IsNaN() bool {
	return h&expMask16 == expMask16 && h&manMask16 != 0
}

// IsInf reports whether h is an infinity. sign > 0 checks +Inf, sign < 0
// checks -Inf, sign == 0 checks either.
func (h Bits) IsInf(sign int) bool {
	if h&expMask16 != expMask16 || h&manMask16 != 0 {
		return false
	}
	neg := h&signMask16 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// Neg returns h with its sign flipped.
func (h Bits) Neg() Bits { return h ^ signMask16 }

// FromSlice converts src FP32 values into dst binary16 values, exactly as
// FromFloat32 would one by one. On amd64 CPUs with F16C it converts eight
// values per instruction; elsewhere, and under the purego build tag, it runs
// fromSlicePortable. It panics if dst is shorter than src.
func FromSlice(dst []Bits, src []float32) {
	fromSlice(dst[:len(src)], src)
}

// fromSlicePortable is FromSlice without hardware conversion. Narrow inlines
// into the loop, and its out-of-range flags are ORed into one word: a slice
// holding a value from ±65520 up, an Inf or a NaN is converted again with
// FromFloat32, which handles those values.
func fromSlicePortable(dst []Bits, src []float32) {
	dst = dst[:len(src)]
	var over uint32
	for i, f := range src {
		h, o := Narrow(f)
		dst[i] = h
		over |= o
	}
	if int32(over) < 0 {
		for i, f := range src {
			dst[i] = FromFloat32(f)
		}
	}
}

// ToSlice converts src binary16 values into dst FP32 values.
// It panics if dst is shorter than src.
func ToSlice(dst []float32, src []Bits) {
	_ = dst[:len(src)]
	for i, h := range src {
		dst[i] = h.ToFloat32()
	}
}

// RoundTrip32 returns f after an FP32 -> binary16 -> FP32 round trip. It is
// the quantization the mixed-precision sample path applies.
func RoundTrip32(f float32) float32 { return FromFloat32(f).ToFloat32() }

// ULP returns the spacing between h and the next representable binary16
// value of larger magnitude, as an FP32 value. For Inf/NaN it returns NaN.
func (h Bits) ULP() float32 {
	if h&expMask16 == expMask16 {
		return float32(math.NaN())
	}
	exp := int32(h&expMask16) >> 10
	if exp == 0 {
		return SmallestSubnormal
	}
	// ulp = 2^(e-10) with e = exp-15.
	return float32(math.Ldexp(1, int(exp-15-10)))
}
