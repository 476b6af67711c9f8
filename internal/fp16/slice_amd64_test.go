//go:build amd64 && !purego

package fp16

import "testing"

// TestFromSliceWithoutF16C takes FromSlice's path for CPUs without F16C.
func TestFromSliceWithoutF16C(t *testing.T) {
	defer func(hw bool) { useF16C = hw }(useF16C)
	useF16C = false
	checkFromSlice(t, "FromSlice without F16C", FromSlice)
}
