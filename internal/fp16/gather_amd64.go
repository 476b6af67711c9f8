//go:build amd64 && !purego

package fp16

// LookupBlocks is LookupPlanes's AVX-512 kernel: it runs the whole 16-voxel
// blocks of the planes, from voxel 0, and stops before the first block that
// holds a key not below len(table), so that block and every one after it
// stay unwritten. It returns the number of voxels written, a multiple of 16;
// LookupPlanes, started there, writes the rest or reports the bad key with
// the same planes it would have left alone. It returns 0 unless AVX512.
func LookupBlocks(planes *[4][]Bits, keys []byte, keyWidth int, table []uint64) int {
	n := len(planes[0]) &^ 15
	if !useAVX512 || n == 0 || len(table) == 0 {
		return 0
	}
	_ = keys[n*keyWidth-1]
	_, _, _ = planes[1][n-1], planes[2][n-1], planes[3][n-1]
	return 16 * lookupBlocks(&planes[0][0], &planes[1][0], &planes[2][0], &planes[3][0],
		&keys[0], keyWidth == 2, &table[0], uint32(len(table)), n/16)
}

// FuseBlocks is FuseCounts's AVX-512 kernel: it fuses the groups of dst in
// blocks of four, from group 0, and returns the number fused, a multiple of
// four; FuseCounts, started there, fuses the rest. It returns 0 unless
// AVX512.
func FuseBlocks(dst []uint64, raw []byte, vals *CountTable) int {
	n := len(dst) &^ 3
	if !useAVX512 || n == 0 {
		return 0
	}
	_ = raw[8*n-1]
	fuseBlocks(&dst[0], &raw[0], &vals[0], n/4)
	return n
}

// lookupBlocks gathers blocks 16-voxel blocks of keys (2-byte keys when
// wide, else 1-byte) through table's ngroups words into the four planes and
// returns the number of blocks done: all of them, or those before the
// first block holding a key >= ngroups.
//
//go:noescape
func lookupBlocks(c0, c1, c2, c3 *Bits, keys *byte, wide bool, table *uint64, ngroups uint32, blocks int) int

// fuseBlocks fuses blocks four-group blocks of raw counts through vals
// into dst.
//
//go:noescape
func fuseBlocks(dst *uint64, raw *byte, vals *Bits, blocks int)
