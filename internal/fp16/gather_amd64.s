//go:build amd64 && !purego

#include "textflag.h"

// The word indices that VPERMI2W takes over two gathered registers, eight
// packed table words each: word 4v+c of the pair is voxel v's channel c.
// chan01 picks channel 0 of voxels 0-15, then channel 1; chan23 channels 2
// and 3.
DATA chan01<>+0(SB)/8, $0x000C000800040000
DATA chan01<>+8(SB)/8, $0x001C001800140010
DATA chan01<>+16(SB)/8, $0x002C002800240020
DATA chan01<>+24(SB)/8, $0x003C003800340030
DATA chan01<>+32(SB)/8, $0x000D000900050001
DATA chan01<>+40(SB)/8, $0x001D001900150011
DATA chan01<>+48(SB)/8, $0x002D002900250021
DATA chan01<>+56(SB)/8, $0x003D003900350031
GLOBL chan01<>(SB), RODATA|NOPTR, $64

DATA chan23<>+0(SB)/8, $0x000E000A00060002
DATA chan23<>+8(SB)/8, $0x001E001A00160012
DATA chan23<>+16(SB)/8, $0x002E002A00260022
DATA chan23<>+24(SB)/8, $0x003E003A00360032
DATA chan23<>+32(SB)/8, $0x000F000B00070003
DATA chan23<>+40(SB)/8, $0x001F001B00170013
DATA chan23<>+48(SB)/8, $0x002F002B00270023
DATA chan23<>+56(SB)/8, $0x003F003B00370033
GLOBL chan23<>(SB), RODATA|NOPTR, $64

// LOOKUP16 gathers the 16 keys in Z0, widened to dwords, through the table
// at DI and stores their four channel runs at R12 bytes into the planes at
// R8-R11; Z31 holds ngroups in every dword, Z30 and Z29 chan01 and chan23.
// A block holding a key >= ngroups jumps to lookupdone before any load or
// store: VPCMPUD with predicate 5 (not less than) sets one mask bit per bad
// key, and KORTESTW clears ZF if any is set. Two VPGATHERDQ fetch the
// packed words of voxels 0-7 and 8-15, and VPERMI2W transposes the pair
// into channels 0 and 1, then 2 and 3, 16 voxels each: one 32-byte store
// per plane.
#define LOOKUP16 \
	VPCMPUD        $5, Z31, Z0, K1          \
	KORTESTW       K1, K1                   \
	JNZ            lookupdone               \
	KXNORW         K0, K0, K2               \
	KXNORW         K0, K0, K3               \
	VEXTRACTI64X4  $1, Z0, Y1               \
	VPGATHERDQ     (DI)(Y0*8), K2, Z2       \
	VPGATHERDQ     (DI)(Y1*8), K3, Z3       \
	VMOVDQA64      Z30, Z4                  \
	VPERMI2W       Z3, Z2, Z4               \
	VMOVDQA64      Z29, Z5                  \
	VPERMI2W       Z3, Z2, Z5               \
	VMOVDQU        Y4, (R8)(R12*1)          \
	VEXTRACTI64X4  $1, Z4, (R9)(R12*1)      \
	VMOVDQU        Y5, (R10)(R12*1)         \
	VEXTRACTI64X4  $1, Z5, (R11)(R12*1)     \
	ADDQ           $32, R12                 \
	INCQ           BX

// func lookupBlocks(c0, c1, c2, c3 *Bits, keys *byte, wide bool, table *uint64, ngroups uint32, blocks int) int
TEXT ·lookupBlocks(SB), NOSPLIT, $0-80
	MOVQ         c0+0(FP), R8
	MOVQ         c1+8(FP), R9
	MOVQ         c2+16(FP), R10
	MOVQ         c3+24(FP), R11
	MOVQ         keys+32(FP), SI
	MOVBLZX      wide+40(FP), DX
	MOVQ         table+48(FP), DI
	MOVL         ngroups+56(FP), AX
	MOVQ         blocks+64(FP), CX
	VPBROADCASTD AX, Z31
	VMOVDQU64    chan01<>(SB), Z30
	VMOVDQU64    chan23<>(SB), Z29
	XORQ         BX, BX
	XORQ         R12, R12
	TESTQ        CX, CX
	JZ           lookupdone
	TESTQ        DX, DX
	JZ           narrow

wide:
	VPMOVZXWD (SI), Z0
	ADDQ      $32, SI
	LOOKUP16
	CMPQ      BX, CX
	JB        wide
	JMP       lookupdone

narrow:
	VPMOVZXBD (SI), Z0
	ADDQ      $16, SI
	LOOKUP16
	CMPQ      BX, CX
	JB        narrow

lookupdone:
	VZEROUPPER
	MOVQ BX, ret+72(FP)
	RET

// func fuseBlocks(dst *uint64, raw *byte, vals *Bits, blocks int)
//
// Four groups per step: VPMOVZXWD widens their 16 counts to dwords, one
// VPGATHERDD reads the dword at vals + 2*count for each (the value in its
// low word; the count table's padding entry keeps the read of count 65535
// inside it), and VPMOVDW stores the 16 low words, which are the four
// packed group words.
TEXT ·fuseBlocks(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  raw+8(FP), SI
	MOVQ  vals+16(FP), DX
	MOVQ  blocks+24(FP), CX
	TESTQ CX, CX
	JZ    fusedone

fuse:
	VPMOVZXWD  (SI), Z0
	KXNORW     K0, K0, K1
	VPGATHERDD (DX)(Z0*2), K1, Z1
	VPMOVDW    Z1, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        fuse

fusedone:
	VZEROUPPER
	RET
