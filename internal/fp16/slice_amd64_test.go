//go:build amd64 && !purego

package fp16

import "testing"

// TestFromSliceWithoutF16C takes FromSlice's path for CPUs without F16C.
func TestFromSliceWithoutF16C(t *testing.T) {
	defer func(hw bool) { useF16C = hw }(useF16C)
	useF16C = false
	checkFromSlice(t, "FromSlice without F16C", FromSlice)
}

// TestAVX2ImpliesF16C checks that AVX2 reports the lane kernels' CPU
// support only on top of F16C's: they convert with VCVTPS2PH.
func TestAVX2ImpliesF16C(t *testing.T) {
	if AVX2() && !useF16C {
		t.Error("AVX2 reported without F16C")
	}
}
