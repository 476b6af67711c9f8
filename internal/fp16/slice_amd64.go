//go:build amd64 && !purego

package fp16

// useF16C reports that the CPU converts FP32 to binary16 in hardware
// (VCVTPS2PH) and the OS saves the YMM registers it uses.
var useF16C = hasF16C()

func hasF16C() bool

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
