//go:build !amd64 || purego

package deltafp

import "scipp/internal/fp16"

// useLanes is false: without the AVX2 kernel every line decodes through
// decodeLine.
const useLanes = false

// deltaLanes and laneFill are never called in this build.
func deltaLanes(*laneBuf, int, uint, *fp16.Bits, int) {}

func laneFill(*laneBuf, *[laneCount]laneCursor, *byte, uint, int) bool { return false }
