//go:build amd64

#include "textflag.h"

// The compare-exchange strip: VPMINUQ and VPMAXUQ on eight lanes of lo and
// hi at a time, four ZMM pairs to an iteration while 32 lanes remain, then
// one pair while 8 remain, then the last 1–7 lanes as one tile under the
// opmask K1: a masked-off lane is neither loaded nor stored.

// func cmpxAVX512(lo, hi []uint64)
TEXT ·cmpxAVX512(SB), NOSPLIT, $0-48
	MOVQ lo_base+0(FP), DI
	MOVQ hi_base+24(FP), SI
	MOVQ lo_len+8(FP), DX
	XORQ AX, AX

cx32:
	LEAQ 32(AX), BX
	CMPQ BX, DX
	JGT  cx8
	VMOVDQU64 (DI)(AX*8), Z0
	VMOVDQU64 64(DI)(AX*8), Z1
	VMOVDQU64 128(DI)(AX*8), Z2
	VMOVDQU64 192(DI)(AX*8), Z3
	VMOVDQU64 (SI)(AX*8), Z4
	VMOVDQU64 64(SI)(AX*8), Z5
	VMOVDQU64 128(SI)(AX*8), Z6
	VMOVDQU64 192(SI)(AX*8), Z7
	VPMINUQ   Z4, Z0, Z8
	VPMAXUQ   Z4, Z0, Z4
	VPMINUQ   Z5, Z1, Z9
	VPMAXUQ   Z5, Z1, Z5
	VPMINUQ   Z6, Z2, Z10
	VPMAXUQ   Z6, Z2, Z6
	VPMINUQ   Z7, Z3, Z11
	VPMAXUQ   Z7, Z3, Z7
	VMOVDQU64 Z8, (DI)(AX*8)
	VMOVDQU64 Z9, 64(DI)(AX*8)
	VMOVDQU64 Z10, 128(DI)(AX*8)
	VMOVDQU64 Z11, 192(DI)(AX*8)
	VMOVDQU64 Z4, (SI)(AX*8)
	VMOVDQU64 Z5, 64(SI)(AX*8)
	VMOVDQU64 Z6, 128(SI)(AX*8)
	VMOVDQU64 Z7, 192(SI)(AX*8)
	MOVQ BX, AX
	JMP  cx32

cx8:
	LEAQ 8(AX), BX
	CMPQ BX, DX
	JGT  cxtail
	VMOVDQU64 (DI)(AX*8), Z0
	VMOVDQU64 (SI)(AX*8), Z1
	VPMINUQ   Z1, Z0, Z2
	VPMAXUQ   Z1, Z0, Z3
	VMOVDQU64 Z2, (DI)(AX*8)
	VMOVDQU64 Z3, (SI)(AX*8)
	MOVQ BX, AX
	JMP  cx8

cxtail:
	MOVQ  DX, CX
	SUBQ  AX, CX
	JZ    cxdone
	MOVQ  $1, BX
	SHLQ  CX, BX
	DECQ  BX
	KMOVW BX, K1
	VMOVDQU64.Z (DI)(AX*8), K1, Z0
	VMOVDQU64.Z (SI)(AX*8), K1, Z1
	VPMINUQ     Z1, Z0, Z2
	VPMAXUQ     Z1, Z0, Z3
	VMOVDQU64   Z2, K1, (DI)(AX*8)
	VMOVDQU64   Z3, K1, (SI)(AX*8)

cxdone:
	VZEROUPPER
	RET
