//go:build !amd64 || purego

package fp16

func fromSlice(dst []Bits, src []float32) { fromSlicePortable(dst, src) }

// AVX2 reports whether kernels may use AVX2 and F16C: never in this build.
func AVX2() bool { return false }
