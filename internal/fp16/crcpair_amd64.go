//go:build amd64 && !purego

package fp16

// crcPairK is crcPairFold's constant table, sixteen words per polynomial,
// CRC-32C's then CRC-32/IEEE's. A constant k(n) is x^n mod P, bit-reversed
// in 32 bits and shifted left one, the form a carry-less multiply of
// bit-reflected operands needs (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel, 2009). Words 0-1 fold a
// 128-bit lane 2048 bits on (k(2080), k(2016)), words 2-3 fold it 512 bits
// on (k(544), k(480)), words 4-11 fold the four lanes of a ZMM register
// into its last (384, 256 and 128 bits on, then nothing), and words 12-15
// reduce that lane to the 32-bit CRC: k(96), k(64), then the polynomial and
// the Barrett quotient floor(x^64 / P), each bit-reversed in 33 bits.
// TestCRCPairConstants derives every word from the two generators.
var crcPairK = [32]uint64{
	0x0dcb17aa4, 0x0b9e02b86, 0x0740eef02, 0x09e4addf8,
	0x01c291d04, 0x1d82c63da, 0x1384aa63a, 0x0ba4fc28e,
	0x0f20c0dfe, 0x14cd00bd6, 0, 0,
	0x14cd00bd6, 0x0dd45aab8, 0x105ec76f1, 0x0dea713f1,

	0x11542778a, 0x1322d1430, 0x154442bd4, 0x1c6e41596,
	0x03db1ecdc, 0x174359406, 0x0f1da05aa, 0x15a546366,
	0x1751997d0, 0x0ccaa009e, 0, 0,
	0x0ccaa009e, 0x163cd6124, 0x1db710641, 0x1f7011641,
}

// crcPairKernel runs the whole 64-byte blocks of src through crcPairFold,
// copying them into dst when it is non-nil (it then holds len(src) bytes),
// and returns how many bytes it took with both CRCs extended over them:
// none without VPCLMULQDQ or a whole block.
func crcPairKernel(dst, src []byte, c, ieee uint32) (int, uint32, uint32) {
	n := len(src) &^ 63
	if !useVPCLMULQDQ || n == 0 {
		return 0, c, ieee
	}
	var d *byte
	if dst != nil {
		d = &dst[:n][0]
	}
	c, ieee = crcPairFold(d, &src[0], n/64, ^c, ^ieee, &crcPairK)
	return n, ^c, ^ieee
}

// crcPairFold extends the CRC registers c (CRC-32C) and ieee (CRC-32/IEEE),
// not inverted, by blocks 64-byte blocks of src and returns them; when dst
// is non-nil it copies the blocks there too.
//
//go:noescape
func crcPairFold(dst, src *byte, blocks int, c, ieee uint32, k *[32]uint64) (uint32, uint32)
