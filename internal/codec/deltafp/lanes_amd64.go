//go:build amd64 && !purego

package deltafp

import "scipp/internal/fp16"

// useLanes reports that decodeGroup may run DELTA lines through the AVX2
// lane kernel (fp16's CPU probe; a test clears it to force the per-line
// path).
var useLanes = fp16.AVX2()

// lanes_amd64.s hard-codes laneBlock and codeSlack.
const _, _, _, _ uint = laneBlock - 320, 320 - laneBlock, codeSlack - 64, 64 - codeSlack

// deltaLanes advances b's eight lanes through the first cols columns of
// the block (cols a multiple of eight, at most laneBlock), as decodeLanes
// describes, and stores lane i's cols FP16 values at out + i*stride bytes.
//
//go:noescape
func deltaLanes(b *laneBuf, cols int, mul uint, out *fp16.Bits, stride int)

// laneFill is the pre-pass decodeLanes describes, for the next n columns
// of each lane whose bit is set in lanes. cur[i] holds lane i's payload
// offsets, and its line ends codeSlack bytes before the payload does. It
// reports false on a framing error.
//
//go:noescape
func laneFill(b *laneBuf, cur *[laneCount]laneCursor, payload *byte, lanes uint, n int) bool
