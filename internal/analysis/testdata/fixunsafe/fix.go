// Package fixunsafe exercises the unsafeimport analyzer: importing unsafe
// anywhere but internal/tensor is flagged, whatever the use.
package fixunsafe

import "unsafe" // flagged: only internal/tensor may import unsafe

// Words reinterprets a byte slice as 64-bit words: the kind of view that
// belongs behind tensor.RawBytes.
func Words(b []byte) []uint64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
