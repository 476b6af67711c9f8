//go:build amd64 && !purego

#include "textflag.h"

// laneBuf's geometry: laneBlock columns, code rows of laneBlock +
// codeSlack bytes, and its field offsets (TestLaneBufLayout checks them).
#define LANEBLOCK 320
#define ROW (LANEBLOCK+64)
#define V 0
#define BASE 32
#define MUL 64
#define CODES 96
#define PIV (CODES+8*ROW)
#define RESET (PIV+32*LANEBLOCK)
#define CODEST (RESET+8*LANEBLOCK)

// laneCursor's field offsets and size.
#define CUR_POS 0
#define CUR_END 8
#define CUR_LINEEND 16
#define CUR_SEGS 24
#define CUR_SIZE 32

DATA signWords<>+0(SB)/8, $0x8000800080008000
DATA signWords<>+8(SB)/8, $0x8000800080008000
DATA signWords<>+16(SB)/8, $0x8000800080008000
DATA signWords<>+24(SB)/8, $0x8000800080008000
GLOBL signWords<>(SB), RODATA|NOPTR, $32

DATA low7Words<>+0(SB)/8, $0x007F007F007F007F
DATA low7Words<>+8(SB)/8, $0x007F007F007F007F
DATA low7Words<>+16(SB)/8, $0x007F007F007F007F
DATA low7Words<>+24(SB)/8, $0x007F007F007F007F
GLOBL low7Words<>(SB), RODATA|NOPTR, $32

// PAIR advances the eight lanes through columns 2p and 2p+1 of the current
// step, with SI, R8 and R9 at the step's reset bytes, transposed codes and
// pivots, and DI at the laneBuf, and leaves the columns' FP16 values in X
// and XX.
//
// A lane builds its delta as deltaSegment does,
//
//	bits = code&0x80<<24 | (base + code&0x7F<<shift), or -0 for code 0,
//
// with base = e<<23 and shift = 23-mantBits >= 17: the low 16 bits of each
// term are zero, so PAIR computes the high halves, 16 of them per register
// (columns 2p and 2p+1), and widens them into FP32 bits afterwards:
//
//	high = code&0x80<<8 | (e<<7 + code&0x7F*2^(7-mantBits)), or 0x8000.
//
// The words hold lanes 0-3 of both columns, then lanes 4-7 of both, as
// the in-lane word unpacks that widen them expect: the transposed codes
// come in that order, and VPSHUFD puts the pair's reset bytes in it. Y8
// becomes the pair's reset mask and Y9 its codes. A reset lane takes its
// code as its new exponent base e, and its pivot as its value; every other
// lane adds its delta to its running value (Y15). A zero code clears the
// base and sets the sign: the delta -0. Y14 holds the bases, e<<7 per
// word: between pairs, those of the last column in both halves; within a
// pair, a column 2p reset reaches column 2p+1 through a second blend. The
// running values are FP32, one column at a time. VADDPS takes Y15 as its
// first source operand, so a NaN running value is what the sum returns
// (quieted) whatever the delta: deltaSegment's NaN rule, since the FP16
// conversion quiets NaNs anyway.
#define PAIR(p, X, XX) \
	VPSHUFD    $0xD8, (p*16)(SI), X8; \
	VPMOVSXBW  X8, Y8; \
	VPMOVZXBW  (p*16)(R8), Y9; \
	VPSLLW     $7, Y9, Y10; \
	VPBLENDVB  Y8, Y10, Y14, Y11; \
	VPSHUFD    $0x44, Y11, Y11; \
	VPBLENDVB  Y8, Y10, Y11, Y14; \
	VPXOR      Y11, Y11, Y11; \
	VPCMPEQW   Y11, Y9, Y11; \
	VPANDN     Y14, Y11, Y10; \
	VPAND      low7Words<>(SB), Y9, Y12; \
	VPMULLW    MUL(DI), Y12, Y12; \
	VPADDW     Y12, Y10, Y10; \
	VPSLLW     $8, Y9, Y12; \
	VPOR       Y11, Y12, Y12; \
	VPAND      signWords<>(SB), Y12, Y12; \
	VPOR       Y12, Y10, Y10; \
	VPXOR      Y11, Y11, Y11; \
	VPUNPCKLWD Y10, Y11, Y12; \
	VPUNPCKHWD Y10, Y11, Y13; \
	VPUNPCKLWD Y8, Y8, Y9; \
	VPUNPCKHWD Y8, Y8, Y8; \
	VANDPS     (p*64)(R9), Y9, Y10; \
	VADDPS     Y12, Y15, Y15; \
	VANDNPS    Y15, Y9, Y15; \
	VORPS      Y10, Y15, Y15; \
	VCVTPS2PH  $0, Y15, X; \
	VANDPS     (p*64+32)(R9), Y8, Y10; \
	VADDPS     Y13, Y15, Y15; \
	VANDNPS    Y15, Y8, Y15; \
	VORPS      Y10, Y15, Y15; \
	VCVTPS2PH  $0, Y15, XX; \
	VPSHUFD    $0xEE, Y14, Y14

// func deltaLanes(b *laneBuf, cols int, mul uint, out *fp16.Bits, stride int)
//
// Two passes over cols columns (a multiple of eight), eight per step; mul
// is 2^(7-mantBits). First the code rows are transposed into one code per
// lane and column, pairs of columns arranged as PAIR reads them (unpacks of
// bytes, words, qwords). Then each step runs its columns into X0-X7 (lane
// i in word i), transposes those into one register per lane (unpacks of
// words, dwords, qwords) and stores lane i's at out + i*stride bytes:
// R10 + i*R11 for i < 4, R12 + (i-4)*R11 after, with R13 = 3*R11.
TEXT ·deltaLanes(SB), NOSPLIT, $0-40
	MOVQ  b+0(FP), DI
	MOVQ  cols+8(FP), CX
	TESTQ CX, CX
	JZ    ret

	LEAQ CODES(DI), SI
	LEAQ CODEST(DI), R8
	MOVQ CX, DX

codesIn:
	VMOVQ       (0*ROW)(SI), X0
	VMOVQ       (1*ROW)(SI), X1
	VMOVQ       (2*ROW)(SI), X2
	VMOVQ       (3*ROW)(SI), X3
	VMOVQ       (4*ROW)(SI), X4
	VMOVQ       (5*ROW)(SI), X5
	VMOVQ       (6*ROW)(SI), X6
	VMOVQ       (7*ROW)(SI), X7
	VPUNPCKLBW  X1, X0, X8
	VPUNPCKLBW  X3, X2, X9
	VPUNPCKLBW  X5, X4, X10
	VPUNPCKLBW  X7, X6, X11
	VPUNPCKLWD  X9, X8, X0
	VPUNPCKHWD  X9, X8, X1
	VPUNPCKLWD  X11, X10, X2
	VPUNPCKHWD  X11, X10, X3
	VPUNPCKLQDQ X2, X0, X4
	VPUNPCKHQDQ X2, X0, X5
	VPUNPCKLQDQ X3, X1, X6
	VPUNPCKHQDQ X3, X1, X7
	VMOVDQU     X4, 0(R8)
	VMOVDQU     X5, 16(R8)
	VMOVDQU     X6, 32(R8)
	VMOVDQU     X7, 48(R8)
	ADDQ        $8, SI
	ADDQ        $64, R8
	SUBQ        $8, DX
	JNZ         codesIn

	MOVQ         mul+16(FP), AX
	VMOVQ        AX, X8
	VPBROADCASTW X8, Y8
	VMOVDQU      Y8, MUL(DI)
	VMOVUPS      V(DI), Y15
	VMOVDQU      BASE(DI), Y14
	LEAQ         RESET(DI), SI
	LEAQ         CODEST(DI), R8
	LEAQ         PIV(DI), R9
	MOVQ         out+24(FP), R10
	MOVQ         stride+32(FP), R11
	LEAQ         (R11)(R11*2), R13
	LEAQ         (R10)(R11*4), R12

step:
	PAIR(0, X0, X1)
	PAIR(1, X2, X3)
	PAIR(2, X4, X5)
	PAIR(3, X6, X7)

	// Words: pairs of columns, lanes 0-3 and 4-7.
	VPUNPCKLWD X1, X0, X8
	VPUNPCKHWD X1, X0, X9
	VPUNPCKLWD X3, X2, X10
	VPUNPCKHWD X3, X2, X11
	VPUNPCKLWD X5, X4, X12
	VPUNPCKHWD X5, X4, X13
	VPUNPCKLWD X7, X6, X0
	VPUNPCKHWD X7, X6, X1

	// Dwords: columns 0-3 (X2-X5) and 4-7 (X6-X9) of lane pairs 01, 23,
	// 45, 67.
	VPUNPCKLDQ X10, X8, X2
	VPUNPCKHDQ X10, X8, X3
	VPUNPCKLDQ X11, X9, X4
	VPUNPCKHDQ X11, X9, X5
	VPUNPCKLDQ X0, X12, X6
	VPUNPCKHDQ X0, X12, X7
	VPUNPCKLDQ X1, X13, X8
	VPUNPCKHDQ X1, X13, X9

	// Qwords: one lane's eight columns per register.
	VPUNPCKLQDQ X6, X2, X0
	VPUNPCKHQDQ X6, X2, X1
	VMOVDQU     X0, 0(R10)
	VMOVDQU     X1, (R10)(R11*1)
	VPUNPCKLQDQ X7, X3, X0
	VPUNPCKHQDQ X7, X3, X1
	VMOVDQU     X0, (R10)(R11*2)
	VMOVDQU     X1, (R10)(R13*1)
	VPUNPCKLQDQ X8, X4, X0
	VPUNPCKHQDQ X8, X4, X1
	VMOVDQU     X0, 0(R12)
	VMOVDQU     X1, (R12)(R11*1)
	VPUNPCKLQDQ X9, X5, X0
	VPUNPCKHQDQ X9, X5, X1
	VMOVDQU     X0, (R12)(R11*2)
	VMOVDQU     X1, (R12)(R13*1)

	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $256, R9
	ADDQ $16, R10
	ADDQ $16, R12
	SUBQ $8, CX
	JNZ  step

	VMOVUPS Y15, V(DI)
	VMOVDQU Y14, BASE(DI)
	VZEROUPPER

ret:
	RET

// func laneFill(b *laneBuf, cur *[laneCount]laneCursor, payload *byte, lanes uint, n int) bool
//
// The pre-pass for the next n columns of each lane whose bit is set in
// lanes, from its cursor on: per segment, a 64-byte copy of its codes
// (more for a longer segment) into the lane's row of codes, overshooting
// into the row's slack or into columns the next segment overwrites; then
// the next header's e into the row, its pivot into piv and 0xFF into
// reset, counting it off the cursor's segs. A header (which may be read
// past the line's end, inside the payload's slack) must hold a count of at
// least 1 whose codes end inside the line; otherwise laneFill returns
// false. Registers: R8 the cursor, R9/R10/R11
// the lane's row of codes, column of piv and column of reset, R12/R13 the
// cursor's pos/end, DX the column.
TEXT ·laneFill(SB), NOSPLIT, $0-41
	MOVQ b+0(FP), DI
	MOVQ cur+8(FP), R8
	MOVQ payload+16(FP), SI
	MOVQ lanes+24(FP), BX
	MOVQ n+32(FP), CX
	LEAQ CODES(DI), R9
	LEAQ PIV(DI), R10
	LEAQ RESET(DI), R11

lane:
	TESTQ $1, BX
	JZ    nextLane
	MOVQ  CUR_POS(R8), R12
	MOVQ  CUR_END(R8), R13
	XORL  DX, DX

run:
	// AX = min(end-pos, n-j): the codes this segment has left in the block.
	MOVQ    R13, AX
	SUBQ    R12, AX
	MOVQ    CX, DI
	SUBQ    DX, DI
	CMPQ    DI, AX
	CMOVQLT DI, AX
	VMOVDQU 0(SI)(R12*1), Y0
	VMOVDQU 32(SI)(R12*1), Y1
	VMOVDQU Y0, 0(R9)(DX*1)
	VMOVDQU Y1, 32(R9)(DX*1)
	CMPQ    AX, $64
	JA      long
	ADDQ    AX, R12
	ADDQ    AX, DX

copied:
	CMPQ    DX, CX
	JEQ     laneDone
	DECQ    CUR_SEGS(R8)
	MOVWQZX 5(SI)(R12*1), R13
	TESTQ   R13, R13
	JZ      fail
	LEAQ    6(R12)(R13*1), R13
	CMPQ    R13, CUR_LINEEND(R8)
	JA      fail
	MOVBLZX 4(SI)(R12*1), AX
	MOVB    AL, 0(R9)(DX*1)
	MOVL    0(SI)(R12*1), AX
	MOVQ    DX, DI
	SHLQ    $5, DI
	MOVL    AX, 0(R10)(DI*1)
	MOVB    $0xFF, 0(R11)(DX*8)
	ADDQ    $7, R12
	INCQ    DX
	JMP     run

long:
	MOVQ AX, DI

longLoop:
	ADDQ    $64, R12
	ADDQ    $64, DX
	SUBQ    $64, DI
	VMOVDQU 0(SI)(R12*1), Y0
	VMOVDQU 32(SI)(R12*1), Y1
	VMOVDQU Y0, 0(R9)(DX*1)
	VMOVDQU Y1, 32(R9)(DX*1)
	CMPQ    DI, $64
	JA      longLoop
	ADDQ    DI, R12
	ADDQ    DI, DX
	JMP     copied

laneDone:
	MOVQ R12, CUR_POS(R8)
	MOVQ R13, CUR_END(R8)

nextLane:
	ADDQ $CUR_SIZE, R8
	ADDQ $ROW, R9
	ADDQ $4, R10
	INCQ R11
	SHRQ $1, BX
	JNZ  lane
	MOVB $1, ret+40(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ret+40(FP)
	VZEROUPPER
	RET
