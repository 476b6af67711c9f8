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
