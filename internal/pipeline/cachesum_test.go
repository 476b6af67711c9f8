package pipeline

import (
	"hash/crc32"
	"math/bits"
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// gf2Mod returns a mod b over GF(2), both as coefficient bit masks.
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

// TestCacheSumGeneratorsCoprime checks the premise of the checksum's
// guarantees: CRC-32C's and CRC-32/IEEE's generators share no factor, so the
// pair is one cyclic code whose generator is their degree-64 product.
func TestCacheSumGeneratorsCoprime(t *testing.T) {
	a, b := normalPoly(crc32.Castagnoli), normalPoly(crc32.IEEE)
	if a != 0x11EDC6F41 || b != 0x104C11DB7 {
		t.Fatalf("generators %#x, %#x: not the CRC-32C / IEEE polynomials", a, b)
	}
	for b != 0 {
		a, b = b, gf2Mod(a, b)
	}
	if a != 1 {
		t.Fatalf("gcd of the generators is %#x, want 1", a)
	}
}

func randomPayload(seed uint64, n int) []byte {
	r := xrand.New(seed)
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(r.Uint64())
	}
	return p
}

// flipDetected reports whether XOR-ing mask into blob at byte offset off
// changes cacheSum, restoring blob afterwards.
func flipDetected(blob []byte, label *tensor.Tensor, want uint64, off int, mask []byte) bool {
	for i, m := range mask {
		blob[off+i] ^= m
	}
	got := cacheSum(blob, label)
	for i, m := range mask {
		blob[off+i] ^= m
	}
	return got != want
}

func TestCacheSumDetectsEverySingleBitFlip(t *testing.T) {
	blob := randomPayload(1, 4<<10)
	want := cacheSum(blob, nil)
	for bit := 0; bit < 8*len(blob); bit++ {
		if !flipDetected(blob, nil, want, bit/8, []byte{1 << (bit % 8)}) {
			t.Fatalf("flip of bit %d of a 4 KB payload escaped", bit)
		}
	}

	// A data-service resident (262 KB), sampled: the guarantee is the same,
	// only the exhaustive loop would be slow.
	big := randomPayload(2, 262<<10)
	want = cacheSum(big, nil)
	r := xrand.New(3)
	for n := 0; n < 512; n++ {
		bit := r.Intn(8 * len(big))
		if !flipDetected(big, nil, want, bit/8, []byte{1 << (bit % 8)}) {
			t.Fatalf("flip of bit %d of a 262 KB payload escaped", bit)
		}
	}
}

// TestCacheSumDetectsBursts flips every burst length up to 64 bits, at
// word-aligned and unaligned bit offsets, with random interior bits: a
// degree-64 cyclic code catches all of them.
func TestCacheSumDetectsBursts(t *testing.T) {
	blob := randomPayload(4, 4<<10)
	label := tensor.FromF32([]float32{1, 2, 3}, 3)
	want := cacheSum(blob, label)
	r := xrand.New(5)
	for _, start := range []int{0, 8 * 64, 8*64 + 3, 8*1001 + 5, 8*len(blob) - 64} {
		for length := 1; length <= 64; length++ {
			for trial := 0; trial < 4; trial++ {
				// A burst of this length: first and last bit set, the
				// interior random.
				pattern := r.Uint64() | 1 | 1<<(length-1)
				if length < 64 {
					pattern &= 1<<length - 1
				}
				shift := start % 8
				var mask [9]byte
				for k := 0; k < length; k++ {
					if pattern>>k&1 == 1 {
						mask[(shift+k)/8] |= 1 << ((shift + k) % 8)
					}
				}
				n := (shift + length + 7) / 8
				if !flipDetected(blob, label, want, start/8, mask[:n]) {
					t.Fatalf("%d-bit burst %#x at bit %d escaped", length, pattern, start)
				}
			}
		}
	}
}

// TestCacheSumCoversLabelDType pins that the label's dtype is part of the
// checksummed stream: the same bits read as F16 and as I16 are different
// samples.
func TestCacheSumCoversLabelDType(t *testing.T) {
	blob := []byte("sample")
	f := tensor.FromF16([]fp16.Bits{0x3C00, 0x0001}, 2)
	i := tensor.FromI16([]int16{0x3C00, 0x0001}, 2)
	if cacheSum(blob, f) == cacheSum(blob, i) {
		t.Fatal("F16 and I16 labels with identical bits share a checksum")
	}
	if cacheSum(blob, f) == cacheSum(blob, nil) {
		t.Fatal("a label does not change the checksum")
	}
}

func TestCacheSumAllocatesNothing(t *testing.T) {
	blob := randomPayload(6, 1<<10)
	label := tensor.FromF32([]float32{7}, 1)
	if n := testing.AllocsPerRun(100, func() { cacheSum(blob, label) }); n != 0 {
		t.Fatalf("cacheSum allocates %v times per call", n)
	}
}
