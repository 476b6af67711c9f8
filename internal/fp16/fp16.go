// Package fp16 implements IEEE 754 binary16 (half-precision) conversion and
// slice kernels.
//
// The paper's decoders emit half-precision samples to feed mixed-precision
// training pipelines ("a floating-point format not supported by the
// decompression frameworks we are aware of", §III). Go has no native float16,
// so this package provides software conversion with round-to-nearest-even,
// full denormal support, and Inf/NaN propagation, plus bulk conversion
// kernels used on the (simulated) accelerator and host decode paths.
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
// Inputs whose magnitude lies in the binary16 normal range [2^-14, 2^16) —
// biased FP32 exponent 113..142, one unsigned compare — take a branch-free
// path: adding 0xFFF plus the kept mantissa's low bit to the magnitude bits
// carries into bit 13 exactly when round-to-nearest-even rounds up (and on
// into the exponent when the mantissa overflows, which is the correct next
// binade, or 0x7C00 = Inf from the top one); the shift drops the 13 surplus
// bits and subtracting 112<<10 rebiases 127 -> 15. Zero, subnormal results,
// underflow, overflow, Inf and NaN fall through to fromFloat32Ref.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	if (b>>23&0xFF)-113 < 30 {
		mag := b&0x7FFFFFFF + 0xFFF + b>>13&1
		return Bits(b>>16)&signMask16 | Bits(mag>>13-112<<10)
	}
	return fromFloat32Ref(f)
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

// FromSlice converts src FP32 values into dst binary16 values.
// It panics if dst is shorter than src.
func FromSlice(dst []Bits, src []float32) {
	_ = dst[:len(src)]
	for i, f := range src {
		dst[i] = FromFloat32(f)
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
