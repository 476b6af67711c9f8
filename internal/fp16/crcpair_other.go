//go:build !amd64 || purego

package fp16

// crcPairKernel takes nothing in this build: the portable body does every
// byte.
func crcPairKernel(_, _ []byte, c, ieee uint32) (int, uint32, uint32) { return 0, c, ieee }
