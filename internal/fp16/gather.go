package fp16

import "encoding/binary"

// The cosmo-LUT decode's two table passes (internal/codec/lut): building a
// sample's fused table from the process-wide count table, and gathering the
// fused table into four channel planes, one key per voxel. Each has a
// portable body here and an AVX-512 kernel (gather_amd64.s) that does the
// whole 16-lane blocks of the same work; the portable body finishes what
// the kernel leaves.

// CountTable maps each of the 65 536 int16 bit patterns, indexed by
// uint16(count), to a binary16 value. Its last entry is padding, not a
// value: FuseBlocks gathers dwords at byte offset 2*index, so the last real
// entry's gather reads two bytes of it and stays inside the table.
type CountTable [1<<16 + 1]Bits

// FuseCounts is the portable fuse: for each group g from from on, it reads
// the group's four little-endian int16 counts at raw[8g:] and stores their
// four CountTable values packed into dst[g], count c in bits 16c..16c+15.
// raw must hold 8*len(dst) bytes.
func FuseCounts(dst []uint64, raw []byte, vals *CountTable, from int) {
	raw = raw[:8*len(dst)]
	for g := from; g < len(dst); g++ {
		r := binary.LittleEndian.Uint64(raw[8*g:])
		dst[g] = uint64(vals[uint16(r)]) | uint64(vals[uint16(r>>16)])<<16 |
			uint64(vals[uint16(r>>32)])<<32 | uint64(vals[uint16(r>>48)])<<48
	}
}

// LookupPlanes is the portable gather: for each voxel p from from on, it
// looks key p up in table, a packed word per group holding channel c's
// binary16 value in bits 16c..16c+15, and stores channel c's value at
// planes[c][p]. keys holds one key per voxel, keyWidth (1 or 2)
// little-endian bytes each, and the four planes have equal lengths; from
// must be a multiple of four.
//
// Four voxels go per step: one key load, the range check on all four keys
// (it is also the table's bounds check) before any store, then the four
// packed table words transposed into one word of four consecutive voxels
// per plane. Planes whose length is not a multiple of four end in a
// per-voxel tail. It returns -1 once every voxel is written, or the index
// of the first key that is not below len(table); then every step before
// that key's is written and nothing from it on.
func LookupPlanes(planes *[4][]Bits, keys []byte, keyWidth int, table []uint64, from int) int {
	// The planes and keys resliced to lengths (and plane capacities) the
	// compiler can relate, so the loops below carry few bounds checks.
	c0 := planes[0][:len(planes[0]):len(planes[0])]
	c1 := planes[1][:len(c0):len(c0)]
	c2 := planes[2][:len(c0):len(c0)]
	c3 := planes[3][:len(c0):len(c0)]
	keys = keys[:len(c0)*keyWidth]
	n := uint(len(table))
	wide := keyWidth == 2
	p := from
	for ; p+4 <= len(c0); p += 4 {
		var k0, k1, k2, k3 uint
		if wide {
			w := binary.LittleEndian.Uint64(keys[2*p:])
			k0, k1, k2, k3 = uint(w&0xFFFF), uint(w>>16&0xFFFF), uint(w>>32&0xFFFF), uint(w>>48)
		} else {
			w := binary.LittleEndian.Uint32(keys[p:])
			k0, k1, k2, k3 = uint(w&0xFF), uint(w>>8&0xFF), uint(w>>16&0xFF), uint(w>>24)
		}
		if k0 >= n {
			return p
		}
		if k1 >= n {
			return p + 1
		}
		if k2 >= n {
			return p + 2
		}
		if k3 >= n {
			return p + 3
		}
		// A 4x4 transpose of 16-bit lanes: t_v holds voxel v's channels
		// 0..3, and channel c's word must hold voxels 0..3. First swap
		// lanes between voxel pairs within 32-bit halves, then swap halves.
		t0, t1, t2, t3 := table[k0], table[k1], table[k2], table[k3]
		const lo16, lo32 = 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF
		u0 := t0&lo16 | t1&lo16<<16  // t0.0 t1.0 t0.2 t1.2
		u1 := t0>>16&lo16 | t1&^lo16 // t0.1 t1.1 t0.3 t1.3
		u2 := t2&lo16 | t3&lo16<<16
		u3 := t2>>16&lo16 | t3&^lo16
		put4(c0[p:p+4:p+4], u0&lo32|u2<<32)
		put4(c1[p:p+4:p+4], u1&lo32|u3<<32)
		put4(c2[p:p+4:p+4], u0>>32|u2&^lo32)
		put4(c3[p:p+4:p+4], u1>>32|u3&^lo32)
	}
	for ; p < len(c0); p++ {
		var k uint
		if wide {
			k = uint(binary.LittleEndian.Uint16(keys[2*p:]))
		} else {
			k = uint(keys[p])
		}
		if k >= n {
			return p
		}
		t := table[k]
		c0[p], c1[p], c2[p], c3[p] = Bits(t), Bits(t>>16), Bits(t>>32), Bits(t>>48)
	}
	return -1
}

// put4 stores w's four 16-bit lanes, lane 0 first, into dst. The compiler
// combines the four element stores into one 64-bit store.
func put4(dst []Bits, w uint64) {
	dst = dst[:4]
	dst[0], dst[1], dst[2], dst[3] = Bits(w), Bits(w>>16), Bits(w>>32), Bits(w>>48)
}
