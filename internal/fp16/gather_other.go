//go:build !amd64 || purego

package fp16

// LookupBlocks writes nothing in this build: LookupPlanes does every
// voxel.
func LookupBlocks(*[4][]Bits, []byte, int, []uint64) int { return 0 }

// FuseBlocks fuses nothing in this build: FuseCounts does every group.
func FuseBlocks([]uint64, []byte, *CountTable) int { return 0 }
