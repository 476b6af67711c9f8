//go:build amd64 && !purego

package fp16

import (
	"hash/crc32"
	"math/bits"
	"testing"
)

// gf2Mod returns a mod b over GF(2), both as coefficient bit masks
// (internal/pipeline's cachesum_test.go has the same helper).
func gf2Mod(a, b uint64) uint64 {
	db := bits.Len64(b)
	for a != 0 && bits.Len64(a) >= db {
		a ^= b << (bits.Len64(a) - db)
	}
	return a
}

// normalPoly turns hash/crc32's bit-reversed polynomial constant into the
// generator's coefficient mask, x^32 term included.
func normalPoly(reversed uint32) uint64 {
	return 1<<32 | uint64(bits.Reverse32(reversed))
}

// xPowMod returns x^n mod p over GF(2), one multiplication by x at a time.
func xPowMod(n int, p uint64) uint64 {
	r := uint64(1)
	for range n {
		r = gf2Mod(r<<1, p)
	}
	return r
}

// barrettQuotient returns floor(x^64 / p) over GF(2) for a degree-32 p:
// long division of x^64, one quotient bit per dividend bit.
func barrettQuotient(p uint64) uint64 {
	var q, r uint64
	for i := 64; i >= 0; i-- {
		r <<= 1
		if i == 64 {
			r |= 1
		}
		if r>>32&1 == 1 {
			r ^= p
			q |= 1 << i
		}
	}
	return q
}

// rev33 bit-reverses a polynomial of degree at most 32 in 33 bits: the
// coefficient of x^j lands in bit 32-j.
func rev33(p uint64) uint64 { return bits.Reverse64(p) >> 31 }

// TestCRCPairConstants derives crcPairK from the two generators: for each,
// the fold constants k(n) = rev33(x^n mod P) at n = 2048±32, 512±32,
// 384±32, 256±32, 128±32 (and a zero pair for the unfolded lane), then
// k(96), k(64), rev33(P) and rev33(floor(x^64 / P)).
func TestCRCPairConstants(t *testing.T) {
	for g, rev := range []uint32{crc32.Castagnoli, crc32.IEEE} {
		p := normalPoly(rev)
		k := func(n int) uint64 { return rev33(xPowMod(n, p)) }
		want := []uint64{
			k(2080), k(2016), k(544), k(480),
			k(416), k(352), k(288), k(224), k(160), k(96), 0, 0,
			k(96), k(64), rev33(p), rev33(barrettQuotient(p)),
		}
		for i, w := range want {
			if got := crcPairK[16*g+i]; got != w {
				t.Errorf("polynomial %#x word %d = %#x, derived %#x", p, i, got, w)
			}
		}
	}
}

// TestCRCPairWithoutVPCLMULQDQ takes CRCPair's path for CPUs without the
// kernel: the portable body does every byte.
func TestCRCPairWithoutVPCLMULQDQ(t *testing.T) {
	t.Logf("VPCLMULQDQ kernel: %v", useVPCLMULQDQ)
	defer func(hw bool) { useVPCLMULQDQ = hw }(useVPCLMULQDQ)
	useVPCLMULQDQ = false
	all := crcPairInput(6, 1000)
	for _, n := range []int{0, 64, 257, 999} {
		checkCRCPair(t, all[1:1+n], 1, 5, true, 3, 4)
	}
}

// TestVPCLMULQDQImpliesAVX512 checks that the folding kernel runs only on
// top of the AVX-512 state the gather kernels need.
func TestVPCLMULQDQImpliesAVX512(t *testing.T) {
	if useVPCLMULQDQ && !AVX512() {
		t.Error("VPCLMULQDQ reported without AVX-512")
	}
}
