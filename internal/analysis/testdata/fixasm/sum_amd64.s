// Flagged: only internal/fp16 and internal/codec/deltafp may hold assembly.

#include "textflag.h"

// func Sum(xs []float32) float32
TEXT ·Sum(SB), NOSPLIT, $0-28
	MOVQ   xs_base+0(FP), SI
	MOVQ   xs_len+8(FP), CX
	XORPS  X0, X0
	TESTQ  CX, CX
	JZ     done

loop:
	ADDSS  (SI), X0
	ADDQ   $4, SI
	DECQ   CX
	JNZ    loop

done:
	MOVSS  X0, ret+24(FP)
	RET
