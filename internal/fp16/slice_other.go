//go:build !amd64 || purego

package fp16

func fromSlice(dst []Bits, src []float32) { fromSlicePortable(dst, src) }
