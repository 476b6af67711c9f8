//go:build amd64 && !purego

#include "textflag.h"

// func hasF16C() bool
//
// CPUID leaf 1 must report F16C (ECX bit 29), AVX (bit 28) and OSXSAVE
// (bit 27), and XCR0 must show the OS saving XMM and YMM state (bits 1-2).
TEXT ·hasF16C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x38000000, CX
	CMPL CX, $0x38000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX2() bool
//
// CPUID leaf 7 (subleaf 0) must exist and report AVX2 (EBX bit 5). The OS
// support for YMM state is hasF16C's XGETBV check.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET

// func fromSliceF16C(dst []Bits, src []float32)
//
// VCVTPS2PH with immediate 0 rounds to nearest even, whatever MXCSR says;
// eight values per step, then one at a time.
TEXT ·fromSliceF16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	CMPQ CX, $8
	JB   tail

loop8:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JAE       loop8

tail:
	TESTQ CX, CX
	JZ    done

loop1:
	VMOVSS    (SI), X0
	VCVTPS2PH $0, X0, X0
	VPEXTRW   $0, X0, (DI)
	ADDQ      $4, SI
	ADDQ      $2, DI
	DECQ      CX
	JNZ       loop1

done:
	VZEROUPPER
	RET

// func hasAVX512() bool
//
// CPUID leaf 7 (subleaf 0) must report AVX512F (EBX bit 16) and AVX512BW
// (EBX bit 30), and XCR0 must show the OS saving the opmask, ZMM_Hi256 and
// Hi16_ZMM state (bits 5-7) besides XMM and YMM (bits 1-2). Leaf 1's
// OSXSAVE bit, which XGETBV needs, is hasF16C's check.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x40010000, BX
	CMPL BX, $0x40010000
	JNE  noavx512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noavx512
	MOVB $1, ret+0(FP)
	RET

noavx512:
	MOVB $0, ret+0(FP)
	RET

// func hasVPCLMULQDQ() bool
//
// CPUID leaf 7 (subleaf 0) must report VPCLMULQDQ (ECX bit 10): carry-less
// multiplies on ZMM registers. The AVX-512 state it needs is hasAVX512's
// check.
TEXT ·hasVPCLMULQDQ(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   novpclmul
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $10, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

novpclmul:
	MOVB $0, ret+0(FP)
	RET
