//go:build amd64 && !purego

#include "textflag.h"

// CRC folding after Gopal et al. ("Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel, 2009), on ZMM registers and for two
// polynomials at once. An accumulator is four 128-bit lanes, each the
// bit-reflected remainder of 16 bytes of the stream; folding a lane n bits
// on is two carry-less multiplies (its low word by k(n+32), its high word
// by k(n-32), from crcPairK) whose sum is congruent to the lane times x^n,
// and the next data lane is XORed in. Every 64-byte load feeds a CRC-32C
// and a CRC-32/IEEE accumulator set, and is stored to dst on the same pass
// when dst is non-nil.

// FOLD folds each lane of acc on by the distance whose constants k holds,
// in every lane, and XORs in x; t is scratch.
#define FOLD(acc, k, x, t) \
	VPCLMULQDQ $0x00, k, acc, t   \
	VPCLMULQDQ $0x11, k, acc, acc \
	VPTERNLOGQ $0x96, x, t, acc

// LANES folds acc's four lanes into one, left in its low lane (xacc): lanes
// 0-2 move 384, 256 and 128 bits on with the constants at kaddr (lane 3's
// are zero), lane 3 comes in unfolded, and the four are XORed together.
#define LANES(acc, yacc, xacc, kaddr) \
	VMOVDQU64     kaddr, Z12          \
	VEXTRACTI32X4 $3, acc, X16        \
	VPCLMULQDQ    $0x00, Z12, acc, Z17 \
	VPCLMULQDQ    $0x11, Z12, acc, acc \
	VPTERNLOGQ    $0x96, Z16, Z17, acc \
	VEXTRACTI64X4 $1, acc, Y14        \
	VPXOR         Y14, yacc, yacc     \
	VEXTRACTI128  $1, yacc, X14       \
	VPXOR         X14, xacc, xacc

// REDUCE turns the 128-bit remainder in xacc into the 32-bit CRC register
// in ret: fold it to 96 bits with k(96) and to 64 with k(64) (the pair at
// kfold), then take it modulo P by Barrett reduction with P and
// floor(x^64 / P) (the pair at kbarrett). X5 holds the low-dword mask.
#define REDUCE(xacc, kfold, kbarrett, ret) \
	VMOVDQU    kfold, X12               \
	VPCLMULQDQ $0x00, X12, xacc, X6     \
	VPSRLDQ    $8, xacc, xacc           \
	VPXOR      X6, xacc, xacc           \
	VPSRLDQ    $4, xacc, X7             \
	VPAND      X5, xacc, xacc           \
	VPCLMULQDQ $0x10, X12, xacc, xacc   \
	VPXOR      X7, xacc, xacc           \
	VMOVDQU    kbarrett, X12            \
	VPAND      X5, xacc, X6             \
	VPCLMULQDQ $0x10, X12, X6, X6       \
	VPAND      X5, X6, X6               \
	VPCLMULQDQ $0x00, X12, X6, X6       \
	VPXOR      xacc, X6, X6             \
	VPEXTRD    $1, X6, ret

// func crcPairFold(dst, src *byte, blocks int, c, ieee uint32, k *[32]uint64) (uint32, uint32)
//
// blocks >= 1. From four blocks on, four accumulators per polynomial fold
// 256 bytes per step, so eight multiply chains run at once; they merge into
// one, which takes the remaining blocks one at a time. AX is the byte
// offset into src and dst.
TEXT ·crcPairFold(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  blocks+16(FP), CX
	MOVQ  k+32(FP), DX
	MOVL  c+24(FP), R8
	MOVL  ieee+28(FP), R9
	VMOVD R8, X14
	VMOVD R9, X15
	CMPQ  CX, $4
	JB    first64

	// The first 256 bytes seed four accumulators per polynomial, the
	// initial registers XORed into the first four bytes.
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	TESTQ     DI, DI
	JZ        seed256
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)

seed256:
	VPXORQ          Z14, Z0, Z4
	VMOVDQA64       Z1, Z5
	VMOVDQA64       Z2, Z6
	VMOVDQA64       Z3, Z7
	VPXORQ          Z15, Z0, Z8
	VMOVDQA64       Z1, Z9
	VMOVDQA64       Z2, Z10
	VMOVDQA64       Z3, Z11
	MOVQ            $256, AX
	SUBQ            $4, CX
	VBROADCASTI32X4 (DX), Z12
	VBROADCASTI32X4 128(DX), Z13

loop256:
	CMPQ      CX, $4
	JB        merge4
	VMOVDQU64 (SI)(AX*1), Z0
	VMOVDQU64 64(SI)(AX*1), Z1
	VMOVDQU64 128(SI)(AX*1), Z2
	VMOVDQU64 192(SI)(AX*1), Z3
	TESTQ     DI, DI
	JZ        fold256
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z1, 64(DI)(AX*1)
	VMOVDQU64 Z2, 128(DI)(AX*1)
	VMOVDQU64 Z3, 192(DI)(AX*1)

fold256:
	FOLD(Z4, Z12, Z0, Z14)
	FOLD(Z5, Z12, Z1, Z15)
	FOLD(Z6, Z12, Z2, Z16)
	FOLD(Z7, Z12, Z3, Z17)
	FOLD(Z8, Z13, Z0, Z18)
	FOLD(Z9, Z13, Z1, Z19)
	FOLD(Z10, Z13, Z2, Z20)
	FOLD(Z11, Z13, Z3, Z21)
	ADDQ $256, AX
	SUBQ $4, CX
	JMP  loop256

merge4:
	// Each accumulator folds 512 bits on into the next: Z4 and Z8 end
	// up holding the stream up to AX.
	VBROADCASTI32X4 16(DX), Z12
	VBROADCASTI32X4 144(DX), Z13
	FOLD(Z4, Z12, Z5, Z14)
	FOLD(Z8, Z13, Z9, Z15)
	FOLD(Z4, Z12, Z6, Z14)
	FOLD(Z8, Z13, Z10, Z15)
	FOLD(Z4, Z12, Z7, Z14)
	FOLD(Z8, Z13, Z11, Z15)
	JMP loop64

first64:
	VMOVDQU64       (SI), Z0
	TESTQ           DI, DI
	JZ              seed64
	VMOVDQU64       Z0, (DI)

seed64:
	VPXORQ          Z14, Z0, Z4
	VPXORQ          Z15, Z0, Z8
	MOVQ            $64, AX
	DECQ            CX
	VBROADCASTI32X4 16(DX), Z12
	VBROADCASTI32X4 144(DX), Z13

loop64:
	TESTQ     CX, CX
	JZ        reduce
	VMOVDQU64 (SI)(AX*1), Z0
	TESTQ     DI, DI
	JZ        fold64
	VMOVDQU64 Z0, (DI)(AX*1)

fold64:
	FOLD(Z4, Z12, Z0, Z14)
	FOLD(Z8, Z13, Z0, Z15)
	ADDQ $64, AX
	DECQ CX
	JMP  loop64

reduce:
	LANES(Z4, Y4, X4, 32(DX))
	LANES(Z8, Y8, X8, 160(DX))
	VPCMPEQB X5, X5, X5
	VPSRLQ   $32, X5, X5
	REDUCE(X4, 96(DX), 112(DX), AX)
	MOVL     AX, ret+40(FP)
	REDUCE(X8, 224(DX), 240(DX), AX)
	MOVL     AX, ret1+44(FP)
	VZEROUPPER
	RET
