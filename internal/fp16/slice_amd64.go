//go:build amd64 && !purego

package fp16

// useF16C reports that the CPU converts FP32 to binary16 in hardware
// (VCVTPS2PH) and the OS saves the YMM registers it uses.
var useF16C = hasF16C()

func hasF16C() bool

// useAVX2 reports that, on top of useF16C, the CPU runs the AVX2 integer
// and blend instructions on YMM registers.
var useAVX2 = useF16C && hasAVX2()

func hasAVX2() bool

// AVX2 reports whether kernels may use AVX2 and F16C: the CPU has both and
// the OS saves the YMM registers. It is the one CPU probe the module's
// assembly kernels consult.
func AVX2() bool { return useAVX2 }

// fromSliceF16C is FromSlice in hardware. VCVTPS2PH rounds to nearest even,
// saturates to Inf, keeps signed zeros and subnormals, and quiets NaNs
// keeping their top payload bits: fromFloat32Ref, case by case, on every
// FP32 pattern. dst must hold len(src) values.
//
//go:noescape
func fromSliceF16C(dst []Bits, src []float32)

func fromSlice(dst []Bits, src []float32) {
	if !useF16C {
		fromSlicePortable(dst, src)
		return
	}
	fromSliceF16C(dst, src)
}
