package fp16

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// crcPairInput returns n pseudo-random bytes.
func crcPairInput(seed uint32, n int) []byte {
	p := make([]byte, n)
	x := seed
	for i := range p {
		x = x*2654435761 + 12345
		p[i] = byte(x >> 24)
	}
	return p
}

// checkCRCPair runs CRCPair over src from the CRCs c and ieee, with dst
// (when copying) at dstOff inside a guarded buffer, and checks both CRCs
// against hash/crc32 and the portable body, the copied bytes against src,
// and that nothing outside dst was written.
func checkCRCPair(t *testing.T, src []byte, srcOff, dstOff int, copying bool, c, ieee uint32) {
	t.Helper()
	wantC := crc32.Update(c, castagnoli, src)
	wantI := crc32.Update(ieee, crc32.IEEETable, src)
	var buf, dst []byte
	if copying {
		buf = bytes.Repeat([]byte{0xA5}, dstOff+len(src)+64)
		dst = buf[dstOff : dstOff+len(src) : dstOff+len(src)]
	}
	name := fmt.Sprintf("%d bytes at src offset %d, dst offset %d, copying %v", len(src), srcOff, dstOff, copying)
	for _, body := range []struct {
		name string
		fn   func(dst, src []byte, c, ieee uint32) (uint32, uint32)
	}{{"CRCPair", CRCPair}, {"portable body", crcPairPortable}} {
		if copying {
			clear(dst)
		}
		if gotC, gotI := body.fn(dst, src, c, ieee); gotC != wantC || gotI != wantI {
			t.Fatalf("%s: %s = %#08x, %#08x; hash/crc32 %#08x, %#08x", name, body.name, gotC, gotI, wantC, wantI)
		}
		if !copying {
			continue
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("%s: %s left dst different from src", name, body.name)
		}
		for i, b := range buf {
			if (i < dstOff || i >= dstOff+len(src)) && b != 0xA5 {
				t.Fatalf("%s: %s wrote byte %d outside dst", name, body.name, i-dstOff)
			}
		}
	}
}

// TestCRCPairLengths checks every length from 0 to 4096, which crosses
// every path of the kernel (one block, four blocks, the 256-byte loop, the
// 64-byte loop after it, the tail the portable body finishes) at every
// source and destination offset 0-63 as the length moves, with and without
// a copy and from zero and non-zero CRCs.
func TestCRCPairLengths(t *testing.T) {
	all := crcPairInput(1, 4096+64)
	for n := 0; n <= 4096; n++ {
		srcOff, dstOff := n%64, (n/64+n*7)%64
		src := all[srcOff : srcOff+n]
		for _, copying := range []bool{false, true} {
			checkCRCPair(t, src, srcOff, dstOff, copying, 0, 0)
			checkCRCPair(t, src, srcOff, dstOff, copying, uint32(n)*0x9E3779B9, ^uint32(n))
		}
	}
}

// TestCRCPairOffsets checks every pair of source and destination offsets
// 0-63 at lengths below one block, of one block and a tail, of the 256-byte
// loop and both tails, and of a whole page.
func TestCRCPairOffsets(t *testing.T) {
	all := crcPairInput(2, 4096+64)
	for _, n := range []int{63, 64 + 5, 5*256 + 3*64 + 17, 4096} {
		for srcOff := 0; srcOff < 64; srcOff++ {
			for dstOff := 0; dstOff < 64; dstOff++ {
				checkCRCPair(t, all[srcOff:srcOff+n], srcOff, dstOff, true, 0x01234567, 0x89ABCDEF)
			}
			checkCRCPair(t, all[srcOff:srcOff+n], srcOff, 0, false, 0x01234567, 0x89ABCDEF)
		}
	}
}

// TestCRCPairResidentSizes checks the data service's resident (262 KB) and
// the cosmo-LUT blob (645 KB), with and without a copy.
func TestCRCPairResidentSizes(t *testing.T) {
	for _, n := range []int{262 << 10, 645 << 10} {
		src := crcPairInput(uint32(n), n+1)[1:]
		checkCRCPair(t, src, 1, 0, false, 0, 0)
		checkCRCPair(t, src, 1, 3, true, 0, 0)
	}
}

func FuzzCRCPair(f *testing.F) {
	f.Add(crcPairInput(3, 300), uint8(0), uint8(0), true, uint32(0), uint32(0))
	f.Add(crcPairInput(4, 4100), uint8(17), uint8(40), false, uint32(1), ^uint32(0))
	f.Add([]byte{}, uint8(0), uint8(5), true, uint32(7), uint32(9))
	f.Fuzz(func(t *testing.T, data []byte, srcOff, dstOff uint8, copying bool, c, ieee uint32) {
		off := min(int(srcOff%64), len(data))
		checkCRCPair(t, data[off:], off, int(dstOff%64), copying, c, ieee)
	})
}

// BenchmarkCRCPair is the pair of cache CRCs at the resident sizes of the
// benchmark workloads (BenchmarkCacheSum's sizes): sum alone, sum with the
// copy-out a data-service hit makes, and the portable body's sum. Its bound
// is a memcpy of the same bytes.
func BenchmarkCRCPair(b *testing.B) {
	for _, size := range []int{24, 384, 262 << 10, 645 << 10} {
		name := fmt.Sprintf("%dB", size)
		if size >= 1<<10 {
			name = fmt.Sprintf("%dKB", size>>10)
		}
		src := crcPairInput(5, size)
		dst := make([]byte, size)
		for _, mode := range []string{"sum", "copy", "portable"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					switch mode {
					case "sum":
						CRCPair(nil, src, 0, 0)
					case "copy":
						CRCPair(dst, src, 0, 0)
					default:
						crcPairPortable(nil, src, 0, 0)
					}
				}
			})
		}
	}
}
