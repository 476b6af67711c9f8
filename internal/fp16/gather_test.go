package fp16

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// testCounts is a count table whose entry i is Bits(i*40503), so every
// count maps to a distinct-looking value and a wrong lane shows.
func testCounts() *CountTable {
	var vals CountTable
	for i := range 1 << 16 {
		vals[i] = Bits(uint32(i) * 40503)
	}
	vals[1<<16] = 0xDEAD // padding: never a value
	return &vals
}

// rawGroups returns n groups of four little-endian counts, starting with
// the extreme patterns (0xFFFF is the gather's last real entry).
func rawGroups(n int) []byte {
	raw := make([]byte, 8*n)
	x := uint32(7)
	for i := 0; i < 4*n; i++ {
		x = x*2654435761 + 12345
		c := uint16(x >> 16)
		switch i {
		case 0, 5:
			c = 0xFFFF
		case 1:
			c = 0x8000
		case 2:
			c = 0
		}
		binary.LittleEndian.PutUint16(raw[2*i:], c)
	}
	return raw
}

// TestFuseBodies checks the fuse as the decoder composes it (kernel, then
// the portable body from where the kernel stopped) and the portable body
// alone against a per-count lookup, for every group count 0..21.
func TestFuseBodies(t *testing.T) {
	vals := testCounts()
	t.Logf("AVX-512 kernel: %v", AVX512())
	for n := 0; n <= 21; n++ {
		raw := rawGroups(n)
		for _, kernel := range []bool{true, false} {
			dst := make([]uint64, n)
			done := 0
			if kernel {
				done = FuseBlocks(dst, raw, vals)
			}
			FuseCounts(dst, raw, vals, done)
			for g, w := range dst {
				for c := 0; c < 4; c++ {
					want := vals[binary.LittleEndian.Uint16(raw[8*g+2*c:])]
					if got := Bits(w >> (16 * c)); got != want {
						t.Fatalf("kernel %v, %d groups: group %d count %d = %#04x, want %#04x", kernel, n, g, c, got, want)
					}
				}
			}
		}
	}
}

// lookupCase is one gather input: plane length n, keys of width kw into a
// table of ng packed words.
type lookupCase struct {
	n, kw, ng int
	keys      []byte
	table     []uint64
}

func newLookupCase(n, kw, ng int) lookupCase {
	lc := lookupCase{n: n, kw: kw, ng: ng, keys: make([]byte, n*kw), table: make([]uint64, ng)}
	x := uint64(n*131 + kw*7 + ng)
	for g := range lc.table {
		x = x*6364136223846793005 + 1442695040888963407
		lc.table[g] = x
	}
	for p := 0; p < n; p++ {
		x = x*6364136223846793005 + 1442695040888963407
		lc.setKey(p, int(x>>33)%ng)
	}
	return lc
}

func (lc lookupCase) setKey(p, k int) {
	if lc.kw == 2 {
		binary.LittleEndian.PutUint16(lc.keys[2*p:], uint16(k))
	} else {
		lc.keys[p] = byte(k)
	}
}

func (lc lookupCase) key(p int) int {
	if lc.kw == 2 {
		return int(binary.LittleEndian.Uint16(lc.keys[2*p:]))
	}
	return int(lc.keys[p])
}

// run gathers into fresh planes pre-filled with a guard value, through the
// kernel and then the portable body, or the portable body alone.
func (lc lookupCase) run(kernel bool) ([4][]Bits, int) {
	var planes [4][]Bits
	for c := range planes {
		planes[c] = make([]Bits, lc.n)
		for p := range planes[c] {
			planes[c][p] = 0x1234
		}
	}
	done := 0
	if kernel {
		done = LookupBlocks(&planes, lc.keys, lc.kw, lc.table)
		if done%16 != 0 || done > lc.n {
			panic(fmt.Sprintf("LookupBlocks did %d of %d voxels", done, lc.n))
		}
	}
	return planes, LookupPlanes(&planes, lc.keys, lc.kw, lc.table, done)
}

// TestLookupBodies checks both paths against a per-voxel lookup, for 1- and
// 2-byte keys, tables of 1 to 65 536 words and plane lengths 0..49.
func TestLookupBodies(t *testing.T) {
	for _, kw := range []int{1, 2} {
		for _, ng := range []int{1, 3, 256, 65536} {
			if kw == 1 && ng > 256 {
				continue
			}
			for n := 0; n < 50; n++ {
				lc := newLookupCase(n, kw, ng)
				for _, kernel := range []bool{true, false} {
					planes, bad := lc.run(kernel)
					if bad != -1 {
						t.Fatalf("kw %d, %d groups, %d voxels, kernel %v: bad key at %d", kw, ng, n, kernel, bad)
					}
					for p := 0; p < n; p++ {
						w := lc.table[lc.key(p)]
						for c := range planes {
							if got, want := planes[c][p], Bits(w>>(16*c)); got != want {
								t.Fatalf("kw %d, %d groups, %d voxels, kernel %v: plane %d voxel %d = %#04x, want %#04x", kw, ng, n, kernel, c, p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestLookupBadKey puts an out-of-range key at every position of a plane of
// 53 voxels (three kernel blocks and a tail) and requires both paths to
// report it and leave identical planes: every four-voxel step before the
// bad key's written, nothing from it on.
func TestLookupBadKey(t *testing.T) {
	for _, kw := range []int{1, 2} {
		const n, ng = 53, 200
		for bad := 0; bad < n; bad++ {
			for _, k := range []int{ng, 255} {
				lc := newLookupCase(n, kw, ng)
				lc.setKey(bad, k)
				portable, pbad := lc.run(false)
				kernel, kbad := lc.run(true)
				if pbad != bad || kbad != bad {
					t.Fatalf("kw %d, key %d at %d: portable reports %d, kernel %d", kw, k, bad, pbad, kbad)
				}
				written := bad &^ 3
				if bad >= n&^3 {
					written = bad // the per-voxel tail
				}
				for c := range portable {
					for p := 0; p < n; p++ {
						want := Bits(0x1234)
						if p < written {
							want = Bits(lc.table[lc.key(p)] >> (16 * c))
						}
						if portable[c][p] != want || kernel[c][p] != want {
							t.Fatalf("kw %d, key %d at %d: plane %d voxel %d: portable %#04x, kernel %#04x, want %#04x", kw, k, bad, c, p, portable[c][p], kernel[c][p], want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkLookupPlanes gathers one 64x64 plane of 2-byte keys through an
// 11 600-word table (a cosmoflow_gpu_cached z-slice), through the kernel
// and the portable body.
func BenchmarkLookupPlanes(b *testing.B) {
	lc := newLookupCase(64*64, 2, 11600)
	for _, kernel := range []bool{true, false} {
		b.Run(fmt.Sprintf("kernel=%v", kernel), func(b *testing.B) {
			var planes [4][]Bits
			for c := range planes {
				planes[c] = make([]Bits, lc.n)
			}
			b.SetBytes(int64(8 * lc.n))
			for i := 0; i < b.N; i++ {
				done := 0
				if kernel {
					done = LookupBlocks(&planes, lc.keys, lc.kw, lc.table)
				}
				LookupPlanes(&planes, lc.keys, lc.kw, lc.table, done)
			}
		})
	}
}

// BenchmarkFuseCounts fuses 11 600 groups (a 4x64^3 sample's table), through
// the kernel and the portable body.
func BenchmarkFuseCounts(b *testing.B) {
	vals, raw := testCounts(), rawGroups(11600)
	dst := make([]uint64, 11600)
	for _, kernel := range []bool{true, false} {
		b.Run(fmt.Sprintf("kernel=%v", kernel), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				done := 0
				if kernel {
					done = FuseBlocks(dst, raw, vals)
				}
				FuseCounts(dst, raw, vals, done)
			}
		})
	}
}
