// Package fixasm exercises the unsafeimport analyzer's assembly rule: an
// assembly file anywhere but internal/fp16 and internal/codec/deltafp is
// flagged.
package fixasm

// Sum adds the values of xs; its body is in sum_amd64.s.
func Sum(xs []float32) float32
