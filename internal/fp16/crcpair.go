package fp16

import "hash/crc32"

// The sample cache's integrity checksum (internal/pipeline's cacheSum) is a
// CRC-32C and a CRC-32/IEEE of the same bytes, and a data-service hit
// copies those bytes out as it verifies them. CRCPair does both CRCs, and
// the copy, in one pass: an AVX-512 folding kernel (crcpair_amd64.s) over
// the whole 64-byte blocks where the CPU has VPCLMULQDQ, and a portable
// body that finishes the rest and serves every other CPU.

// castagnoli is the CRC-32C table; hash/crc32 recognizes it and runs the
// SSE4.2 (or ARMv8) instruction instead of the table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcPairBlock is how many bytes the portable body takes per step: small
// enough that the second CRC and the copy find the step's bytes still in L1
// after the first CRC read them.
const crcPairBlock = 16 << 10

// CRCPair extends c, a CRC-32C, and ieee, a CRC-32/IEEE, by src, as
// crc32.Update would each, and returns the two. When dst is non-nil it must
// hold len(src) bytes, and CRCPair copies src into it on the same pass.
//
//scipp:hotpath
func CRCPair(dst, src []byte, c, ieee uint32) (uint32, uint32) {
	if dst != nil {
		dst = dst[:len(src)]
	}
	if len(src) < 64 {
		// Below one block: the two updates and the copy, with no loop.
		if dst != nil {
			copy(dst, src)
		}
		return crc32.Update(c, castagnoli, src), crc32.Update(ieee, crc32.IEEETable, src)
	}
	n, c, ieee := crcPairKernel(dst, src, c, ieee)
	if dst != nil {
		dst = dst[n:]
	}
	return crcPairPortable(dst, src[n:], c, ieee)
}

// crcPairPortable is CRCPair in hash/crc32's updates, a step of
// crcPairBlock bytes at a time. dst is nil or holds len(src) bytes.
func crcPairPortable(dst, src []byte, c, ieee uint32) (uint32, uint32) {
	for len(src) > 0 {
		step := src[:min(len(src), crcPairBlock)]
		c = crc32.Update(c, castagnoli, step)
		ieee = crc32.Update(ieee, crc32.IEEETable, step)
		if dst != nil {
			dst = dst[copy(dst, step):]
		}
		src = src[len(step):]
	}
	return c, ieee
}
