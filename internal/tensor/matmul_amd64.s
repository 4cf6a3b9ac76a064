//go:build amd64

#include "textflag.h"

// Strips of the float64 GEMM (see matmul_amd64.go and gemmEngine). Every
// product and every sum is its own VMULPD or VADDPD — a fused multiply-add
// would round once where the Go code rounds twice — grouped as the Go code
// groups them (the note above each macro), so every lane's result is the
// Go result. Which operand of an add or multiply comes first decides only
// which payload survives when both are NaN (x86 returns the first); the Go
// compiler does not fix that order either — it moves with inlining and
// with race and fuzz instrumentation — so NaN payloads are not part of the
// contract.
//
// Registers shared by the four strips: AX is the first column of the tile,
// BX walks the tile's columns down the rows of b, CX counts terms, R13 is
// the row stride of b in bytes, Y8–Y11 hold the output tile and Y14–Y15
// the tail mask.

// gemmTailMask is seven all-ones lanes then eight zero lanes: the 8 lanes
// starting (7-r) lanes in select the first r < 8 columns.
DATA gemmTailMask<>+0(SB)/8, $-1
DATA gemmTailMask<>+8(SB)/8, $-1
DATA gemmTailMask<>+16(SB)/8, $-1
DATA gemmTailMask<>+24(SB)/8, $-1
DATA gemmTailMask<>+32(SB)/8, $-1
DATA gemmTailMask<>+40(SB)/8, $-1
DATA gemmTailMask<>+48(SB)/8, $-1
DATA gemmTailMask<>+56(SB)/8, $0
DATA gemmTailMask<>+64(SB)/8, $0
DATA gemmTailMask<>+72(SB)/8, $0
DATA gemmTailMask<>+80(SB)/8, $0
DATA gemmTailMask<>+88(SB)/8, $0
DATA gemmTailMask<>+96(SB)/8, $0
DATA gemmTailMask<>+104(SB)/8, $0
DATA gemmTailMask<>+112(SB)/8, $0
GLOBL gemmTailMask<>(SB), RODATA|NOPTR, $120

// TAILMASK(r) sets Y15 to the lanes j < r of columns 0–3 and Y14 to those
// of columns 4–7, for 0 < r < 8. It negates r and clobbers BX.
#define TAILMASK(r) \
	LEAQ    gemmTailMask<>(SB), BX; \
	NEGQ    r; \
	VMOVUPD 56(BX)(r*8), Y15; \
	VMOVUPD 88(BX)(r*8), Y14

// PAIR2 adds one pair of terms — b_x in Y4 (columns 0–3) and Y5 (4–7),
// b_x+1 in Y6 and Y7 — to row 0 (Y8, Y9) and row 1 (Y10, Y11); the
// coefficients are at R14 (row 0) and DX (row 1), the second of each pair
// R12 bytes on. As addRows22: c0 + (a00·b0 + a01·b1), c1 + (a10·b0 + a11·b1).
#define PAIR2 \
	VBROADCASTSD (R14), Y0; \
	VBROADCASTSD (R14)(R12*1), Y1; \
	VBROADCASTSD (DX), Y2; \
	VBROADCASTSD (DX)(R12*1), Y3; \
	VMULPD       Y4, Y0, Y12; \
	VMULPD       Y6, Y1, Y13; \
	VADDPD       Y12, Y13, Y13; \
	VADDPD       Y8, Y13, Y8; \
	VMULPD       Y5, Y0, Y12; \
	VMULPD       Y7, Y1, Y13; \
	VADDPD       Y12, Y13, Y13; \
	VADDPD       Y9, Y13, Y9; \
	VMULPD       Y2, Y4, Y4; \
	VMULPD       Y3, Y6, Y6; \
	VADDPD       Y4, Y6, Y6; \
	VADDPD       Y10, Y6, Y10; \
	VMULPD       Y2, Y5, Y5; \
	VMULPD       Y3, Y7, Y7; \
	VADDPD       Y5, Y7, Y7; \
	VADDPD       Y11, Y7, Y11; \
	LEAQ         (R14)(R12*2), R14; \
	LEAQ         (DX)(R12*2), DX

// ODD2 adds the last, unpaired term (b_x in Y4, Y5) to rows 0 and 1. As
// addRows21: c0 + a0·b, c1 + a1·b.
#define ODD2 \
	VBROADCASTSD (R14), Y0; \
	VBROADCASTSD (DX), Y2; \
	VMULPD       Y0, Y4, Y12; \
	VADDPD       Y8, Y12, Y8; \
	VMULPD       Y0, Y5, Y13; \
	VADDPD       Y9, Y13, Y9; \
	VMULPD       Y2, Y4, Y4; \
	VADDPD       Y10, Y4, Y10; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       Y11, Y5, Y11

// PAIR1 is PAIR2 for one row (Y8, Y9; coefficients at R14). As addRow12:
// c + (a0·b0 + a1·b1).
#define PAIR1 \
	VBROADCASTSD (R14), Y0; \
	VBROADCASTSD (R14)(R12*1), Y1; \
	VMULPD       Y0, Y4, Y4; \
	VMULPD       Y1, Y6, Y6; \
	VADDPD       Y6, Y4, Y4; \
	VADDPD       Y8, Y4, Y8; \
	VMULPD       Y0, Y5, Y5; \
	VMULPD       Y1, Y7, Y7; \
	VADDPD       Y7, Y5, Y5; \
	VADDPD       Y9, Y5, Y9; \
	LEAQ         (R14)(R12*2), R14

// ODD1 is ODD2 for one row. As addRow11: c + a·b.
#define ODD1 \
	VBROADCASTSD (R14), Y0; \
	VMULPD       Y0, Y4, Y4; \
	VADDPD       Y8, Y4, Y8; \
	VMULPD       Y0, Y5, Y5; \
	VADDPD       Y9, Y5, Y9

// SEQ2 adds term x (CX) — b_x in Y4 (columns 0–3) and Y5 (4–7) — to the
// accumulators of row 0 (Y8, Y9) and row 1 (Y10, Y11); the coefficients are
// a0[x] at R8 and a1[x] at R9. As the dot form (ntDotRows): s0 + a0·b,
// s1 + a1·b.
#define SEQ2 \
	VBROADCASTSD (R8)(CX*8), Y0; \
	VBROADCASTSD (R9)(CX*8), Y1; \
	VMULPD       Y0, Y4, Y2; \
	VADDPD       Y8, Y2, Y8; \
	VMULPD       Y0, Y5, Y3; \
	VADDPD       Y9, Y3, Y9; \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       Y10, Y4, Y10; \
	VMULPD       Y1, Y5, Y5; \
	VADDPD       Y11, Y5, Y11

// SEQ1 is SEQ2 for one row (Y8, Y9; a[x] at R8).
#define SEQ1 \
	VBROADCASTSD (R8)(CX*8), Y0; \
	VMULPD       Y0, Y4, Y4; \
	VADDPD       Y8, Y4, Y8; \
	VMULPD       Y0, Y5, Y5; \
	VADDPD       Y9, Y5, Y9

// func pairs2AVX(c0, c1, a0, a1, b []float64, kn, as, bs int)
TEXT ·pairs2AVX(SB), NOSPLIT, $0-144
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), R10
	MOVQ kn+120(FP), R11
	MOVQ as+128(FP), R12
	SHLQ $3, R12
	MOVQ bs+136(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

p2tile:
	LEAQ    8(AX), BX
	CMPQ    BX, c0_len+8(FP)
	JGT     p2tail
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VMOVUPD (SI)(AX*8), Y10
	VMOVUPD 32(SI)(AX*8), Y11
	LEAQ    (R10)(AX*8), BX
	MOVQ    R8, R14
	MOVQ    R9, DX
	MOVQ    R11, CX
	SHRQ    $1, CX
	JZ      p2odd

p2pair:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R13*1), Y6
	VMOVUPD 32(BX)(R13*1), Y7
	PAIR2
	LEAQ    (BX)(R13*2), BX
	DECQ    CX
	JNZ     p2pair

p2odd:
	TESTQ   $1, R11
	JZ      p2store
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	ODD2

p2store:
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	VMOVUPD Y10, (SI)(AX*8)
	VMOVUPD Y11, 32(SI)(AX*8)
	ADDQ    $8, AX
	JMP     p2tile

p2tail:
	MOVQ       c0_len+8(FP), CX
	SUBQ       AX, CX
	JZ         p2done
	TAILMASK(CX)
	VMASKMOVPD (DI)(AX*8), Y15, Y8
	VMASKMOVPD 32(DI)(AX*8), Y14, Y9
	VMASKMOVPD (SI)(AX*8), Y15, Y10
	VMASKMOVPD 32(SI)(AX*8), Y14, Y11
	LEAQ       (R10)(AX*8), BX
	MOVQ       R8, R14
	MOVQ       R9, DX
	MOVQ       R11, CX
	SHRQ       $1, CX
	JZ         p2todd

p2tpair:
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	VMASKMOVPD (BX)(R13*1), Y15, Y6
	VMASKMOVPD 32(BX)(R13*1), Y14, Y7
	PAIR2
	LEAQ       (BX)(R13*2), BX
	DECQ       CX
	JNZ        p2tpair

p2todd:
	TESTQ      $1, R11
	JZ         p2tstore
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	ODD2

p2tstore:
	VMASKMOVPD Y8, Y15, (DI)(AX*8)
	VMASKMOVPD Y9, Y14, 32(DI)(AX*8)
	VMASKMOVPD Y10, Y15, (SI)(AX*8)
	VMASKMOVPD Y11, Y14, 32(SI)(AX*8)

p2done:
	VZEROUPPER
	RET

// func pairs1AVX(c, a, b []float64, kn, as, bs int)
TEXT ·pairs1AVX(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R10
	MOVQ kn+72(FP), R11
	MOVQ as+80(FP), R12
	SHLQ $3, R12
	MOVQ bs+88(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

p1tile:
	LEAQ    8(AX), BX
	CMPQ    BX, c_len+8(FP)
	JGT     p1tail
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	LEAQ    (R10)(AX*8), BX
	MOVQ    R8, R14
	MOVQ    R11, CX
	SHRQ    $1, CX
	JZ      p1odd

p1pair:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R13*1), Y6
	VMOVUPD 32(BX)(R13*1), Y7
	PAIR1
	LEAQ    (BX)(R13*2), BX
	DECQ    CX
	JNZ     p1pair

p1odd:
	TESTQ   $1, R11
	JZ      p1store
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	ODD1

p1store:
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     p1tile

p1tail:
	MOVQ       c_len+8(FP), CX
	SUBQ       AX, CX
	JZ         p1done
	TAILMASK(CX)
	VMASKMOVPD (DI)(AX*8), Y15, Y8
	VMASKMOVPD 32(DI)(AX*8), Y14, Y9
	LEAQ       (R10)(AX*8), BX
	MOVQ       R8, R14
	MOVQ       R11, CX
	SHRQ       $1, CX
	JZ         p1todd

p1tpair:
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	VMASKMOVPD (BX)(R13*1), Y15, Y6
	VMASKMOVPD 32(BX)(R13*1), Y14, Y7
	PAIR1
	LEAQ       (BX)(R13*2), BX
	DECQ       CX
	JNZ        p1tpair

p1todd:
	TESTQ      $1, R11
	JZ         p1tstore
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	ODD1

p1tstore:
	VMASKMOVPD Y8, Y15, (DI)(AX*8)
	VMASKMOVPD Y9, Y14, 32(DI)(AX*8)

p1done:
	VZEROUPPER
	RET

// func seq2AVX(c0, c1, a0, a1, b []float64, kn, bs int)
//
// The tile is 8 columns wide, so four accumulator chains are in flight.
// The accumulators start at +0; after the last term, c + s, as the dot
// form.
TEXT ·seq2AVX(SB), NOSPLIT, $0-136
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), R10
	MOVQ kn+120(FP), R11
	MOVQ bs+128(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

s2tile:
	LEAQ   8(AX), BX
	CMPQ   BX, c0_len+8(FP)
	JGT    s2tail
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s2add

s2term:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	SEQ2
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     s2term

s2add:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y6
	VMOVUPD 32(SI)(AX*8), Y7
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ    $8, AX
	JMP     s2tile

s2tail:
	MOVQ   c0_len+8(FP), CX
	SUBQ   AX, CX
	JZ     s2done
	TAILMASK(CX)
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s2tadd

s2tterm:
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	SEQ2
	ADDQ       R13, BX
	INCQ       CX
	CMPQ       CX, R11
	JLT        s2tterm

s2tadd:
	VMASKMOVPD (DI)(AX*8), Y15, Y4
	VMASKMOVPD 32(DI)(AX*8), Y14, Y5
	VMASKMOVPD (SI)(AX*8), Y15, Y6
	VMASKMOVPD 32(SI)(AX*8), Y14, Y7
	VADDPD     Y8, Y4, Y4
	VADDPD     Y9, Y5, Y5
	VADDPD     Y10, Y6, Y6
	VADDPD     Y11, Y7, Y7
	VMASKMOVPD Y4, Y15, (DI)(AX*8)
	VMASKMOVPD Y5, Y14, 32(DI)(AX*8)
	VMASKMOVPD Y6, Y15, (SI)(AX*8)
	VMASKMOVPD Y7, Y14, 32(SI)(AX*8)

s2done:
	VZEROUPPER
	RET

// func seq1AVX(c, a, b []float64, kn, bs int)
TEXT ·seq1AVX(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R10
	MOVQ kn+72(FP), R11
	MOVQ bs+80(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

s1tile:
	LEAQ   8(AX), BX
	CMPQ   BX, c_len+8(FP)
	JGT    s1tail
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s1add

s1term:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	SEQ1
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     s1term

s1add:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     s1tile

s1tail:
	MOVQ   c_len+8(FP), CX
	SUBQ   AX, CX
	JZ     s1done
	TAILMASK(CX)
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s1tadd

s1tterm:
	VMASKMOVPD (BX), Y15, Y4
	VMASKMOVPD 32(BX), Y14, Y5
	SEQ1
	ADDQ       R13, BX
	INCQ       CX
	CMPQ       CX, R11
	JLT        s1tterm

s1tadd:
	VMASKMOVPD (DI)(AX*8), Y15, Y4
	VMASKMOVPD 32(DI)(AX*8), Y14, Y5
	VADDPD     Y8, Y4, Y4
	VADDPD     Y9, Y5, Y5
	VMASKMOVPD Y4, Y15, (DI)(AX*8)
	VMASKMOVPD Y5, Y14, 32(DI)(AX*8)

s1done:
	VZEROUPPER
	RET

// The AVX-512 two-row strips. Each holds a 16-column tile of each output
// row in two ZMM registers (Z8, Z9 for row 0; Z10, Z11 for row 1) and runs
// the same steps as pairs2AVX and seq2AVX, eight lanes to an instruction
// instead of four: every lane still does one VMULPD per product and one
// VADDPD per sum, grouped as PAIR2, ODD2 and SEQ2 group them. The columns
// past the last full tile run as one tile under the opmasks K1 (columns
// 0–7) and K2 (8–15); a masked-off lane is neither loaded nor stored.
//
// The full tiles keep their own unmasked loop. One loop running every tile
// under masks (all ones for a full tile) gives the same bits but is slower
// on every shape the models run through these strips: calls timed
// alternately in one process at GOMAXPROCS 1 on a 2-core Xeon (model 207),
// median of 400 alternations per shape, the masked-only strips took 1.03×
// (conv1 NT 8×25×196) to 1.24× (conv1 NN 8×196×25) as long, conv2's TN
// and NT 1.12× and 1.16×, the MLPs' 32-column NT layers 1.05–1.20×.

// ZTAILMASK(r) sets K1 and K2 to the lanes j < r of the tile, for
// 0 < r < 16. r must be CX (the shift count); it clobbers BX.
#define ZTAILMASK(r) \
	MOVQ  $1, BX; \
	SHLQ  r, BX; \
	DECQ  BX; \
	KMOVW BX, K1; \
	SHRQ  $8, BX; \
	KMOVW BX, K2

// PAIR2Z is PAIR2 on ZMM registers: b_x in Z4 (columns 0–7) and Z5
// (8–15), b_x+1 in Z6 and Z7.
#define PAIR2Z \
	VBROADCASTSD (R14), Z0; \
	VBROADCASTSD (R14)(R12*1), Z1; \
	VBROADCASTSD (DX), Z2; \
	VBROADCASTSD (DX)(R12*1), Z3; \
	VMULPD       Z4, Z0, Z12; \
	VMULPD       Z6, Z1, Z13; \
	VADDPD       Z12, Z13, Z13; \
	VADDPD       Z8, Z13, Z8; \
	VMULPD       Z5, Z0, Z12; \
	VMULPD       Z7, Z1, Z13; \
	VADDPD       Z12, Z13, Z13; \
	VADDPD       Z9, Z13, Z9; \
	VMULPD       Z2, Z4, Z4; \
	VMULPD       Z3, Z6, Z6; \
	VADDPD       Z4, Z6, Z6; \
	VADDPD       Z10, Z6, Z10; \
	VMULPD       Z2, Z5, Z5; \
	VMULPD       Z3, Z7, Z7; \
	VADDPD       Z5, Z7, Z7; \
	VADDPD       Z11, Z7, Z11; \
	LEAQ         (R14)(R12*2), R14; \
	LEAQ         (DX)(R12*2), DX

// ODD2Z is ODD2 on ZMM registers (b_x in Z4, Z5).
#define ODD2Z \
	VBROADCASTSD (R14), Z0; \
	VBROADCASTSD (DX), Z2; \
	VMULPD       Z0, Z4, Z12; \
	VADDPD       Z8, Z12, Z8; \
	VMULPD       Z0, Z5, Z13; \
	VADDPD       Z9, Z13, Z9; \
	VMULPD       Z2, Z4, Z4; \
	VADDPD       Z10, Z4, Z10; \
	VMULPD       Z2, Z5, Z5; \
	VADDPD       Z11, Z5, Z11

// SEQ2Z is SEQ2 on ZMM registers (b_x in Z4, Z5).
#define SEQ2Z \
	VBROADCASTSD (R8)(CX*8), Z0; \
	VBROADCASTSD (R9)(CX*8), Z1; \
	VMULPD       Z0, Z4, Z2; \
	VADDPD       Z8, Z2, Z8; \
	VMULPD       Z0, Z5, Z3; \
	VADDPD       Z9, Z3, Z9; \
	VMULPD       Z1, Z4, Z4; \
	VADDPD       Z10, Z4, Z10; \
	VMULPD       Z1, Z5, Z5; \
	VADDPD       Z11, Z5, Z11

// func pairs2AVX512(c0, c1, a0, a1, b []float64, kn, as, bs int)
TEXT ·pairs2AVX512(SB), NOSPLIT, $0-144
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), R10
	MOVQ kn+120(FP), R11
	MOVQ as+128(FP), R12
	SHLQ $3, R12
	MOVQ bs+136(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

p2ztile:
	LEAQ    16(AX), BX
	CMPQ    BX, c0_len+8(FP)
	JGT     p2ztail
	VMOVUPD (DI)(AX*8), Z8
	VMOVUPD 64(DI)(AX*8), Z9
	VMOVUPD (SI)(AX*8), Z10
	VMOVUPD 64(SI)(AX*8), Z11
	LEAQ    (R10)(AX*8), BX
	MOVQ    R8, R14
	MOVQ    R9, DX
	MOVQ    R11, CX
	SHRQ    $1, CX
	JZ      p2zodd

p2zpair:
	VMOVUPD (BX), Z4
	VMOVUPD 64(BX), Z5
	VMOVUPD (BX)(R13*1), Z6
	VMOVUPD 64(BX)(R13*1), Z7
	PAIR2Z
	LEAQ    (BX)(R13*2), BX
	DECQ    CX
	JNZ     p2zpair

p2zodd:
	TESTQ   $1, R11
	JZ      p2zstore
	VMOVUPD (BX), Z4
	VMOVUPD 64(BX), Z5
	ODD2Z

p2zstore:
	VMOVUPD Z8, (DI)(AX*8)
	VMOVUPD Z9, 64(DI)(AX*8)
	VMOVUPD Z10, (SI)(AX*8)
	VMOVUPD Z11, 64(SI)(AX*8)
	ADDQ    $16, AX
	JMP     p2ztile

p2ztail:
	MOVQ      c0_len+8(FP), CX
	SUBQ      AX, CX
	JZ        p2zdone
	ZTAILMASK(CX)
	VMOVUPD.Z (DI)(AX*8), K1, Z8
	VMOVUPD.Z 64(DI)(AX*8), K2, Z9
	VMOVUPD.Z (SI)(AX*8), K1, Z10
	VMOVUPD.Z 64(SI)(AX*8), K2, Z11
	LEAQ      (R10)(AX*8), BX
	MOVQ      R8, R14
	MOVQ      R9, DX
	MOVQ      R11, CX
	SHRQ      $1, CX
	JZ        p2ztodd

p2ztpair:
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	VMOVUPD.Z (BX)(R13*1), K1, Z6
	VMOVUPD.Z 64(BX)(R13*1), K2, Z7
	PAIR2Z
	LEAQ      (BX)(R13*2), BX
	DECQ      CX
	JNZ       p2ztpair

p2ztodd:
	TESTQ     $1, R11
	JZ        p2ztstore
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	ODD2Z

p2ztstore:
	VMOVUPD Z8, K1, (DI)(AX*8)
	VMOVUPD Z9, K2, 64(DI)(AX*8)
	VMOVUPD Z10, K1, (SI)(AX*8)
	VMOVUPD Z11, K2, 64(SI)(AX*8)

p2zdone:
	VZEROUPPER
	RET

// func seq2AVX512(c0, c1, a0, a1, b []float64, kn, bs int)
TEXT ·seq2AVX512(SB), NOSPLIT, $0-136
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), R10
	MOVQ kn+120(FP), R11
	MOVQ bs+128(FP), R13
	SHLQ $3, R13
	XORQ AX, AX

s2ztile:
	LEAQ   16(AX), BX
	CMPQ   BX, c0_len+8(FP)
	JGT    s2ztail
	VXORPD Z8, Z8, Z8
	VXORPD Z9, Z9, Z9
	VXORPD Z10, Z10, Z10
	VXORPD Z11, Z11, Z11
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s2zadd

s2zterm:
	VMOVUPD (BX), Z4
	VMOVUPD 64(BX), Z5
	SEQ2Z
	ADDQ    R13, BX
	INCQ    CX
	CMPQ    CX, R11
	JLT     s2zterm

s2zadd:
	VMOVUPD (DI)(AX*8), Z4
	VMOVUPD 64(DI)(AX*8), Z5
	VMOVUPD (SI)(AX*8), Z6
	VMOVUPD 64(SI)(AX*8), Z7
	VADDPD  Z8, Z4, Z4
	VADDPD  Z9, Z5, Z5
	VADDPD  Z10, Z6, Z6
	VADDPD  Z11, Z7, Z7
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	VMOVUPD Z6, (SI)(AX*8)
	VMOVUPD Z7, 64(SI)(AX*8)
	ADDQ    $16, AX
	JMP     s2ztile

s2ztail:
	MOVQ   c0_len+8(FP), CX
	SUBQ   AX, CX
	JZ     s2zdone
	ZTAILMASK(CX)
	VXORPD Z8, Z8, Z8
	VXORPD Z9, Z9, Z9
	VXORPD Z10, Z10, Z10
	VXORPD Z11, Z11, Z11
	LEAQ   (R10)(AX*8), BX
	XORQ   CX, CX
	CMPQ   CX, R11
	JGE    s2ztadd

s2ztterm:
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	SEQ2Z
	ADDQ      R13, BX
	INCQ      CX
	CMPQ      CX, R11
	JLT       s2ztterm

s2ztadd:
	VMOVUPD.Z (DI)(AX*8), K1, Z4
	VMOVUPD.Z 64(DI)(AX*8), K2, Z5
	VMOVUPD.Z (SI)(AX*8), K1, Z6
	VMOVUPD.Z 64(SI)(AX*8), K2, Z7
	VADDPD    Z8, Z4, Z4
	VADDPD    Z9, Z5, Z5
	VADDPD    Z10, Z6, Z6
	VADDPD    Z11, Z7, Z7
	VMOVUPD   Z4, K1, (DI)(AX*8)
	VMOVUPD   Z5, K2, 64(DI)(AX*8)
	VMOVUPD   Z6, K1, (SI)(AX*8)
	VMOVUPD   Z7, K2, 64(SI)(AX*8)

s2zdone:
	VZEROUPPER
	RET

// func transpose4AVX(dst, src []float64, n4, k4, n, k int)
//
// Writes the leading n4×k4 block of the n×k matrix src into dst (k×n), four
// rows by four columns at a time: two unpacks and two lane swaps per pair
// of rows.
TEXT ·transpose4AVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n4+48(FP), R8
	MOVQ k4+56(FP), R9
	MOVQ n+64(FP), R10
	SHLQ $3, R10
	MOVQ k+72(FP), R11
	SHLQ $3, R11
	XORQ AX, AX

trows:
	MOVQ  AX, BX
	IMULQ R11, BX
	ADDQ  SI, BX
	LEAQ  (DI)(AX*8), DX
	XORQ  CX, CX

tblock:
	VMOVUPD    (BX), Y0
	VMOVUPD    (BX)(R11*1), Y1
	LEAQ       (BX)(R11*2), R12
	VMOVUPD    (R12), Y2
	VMOVUPD    (R12)(R11*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, (DX)(R10*1)
	LEAQ       (DX)(R10*2), R12
	VMOVUPD    Y2, (R12)
	VMOVUPD    Y3, (R12)(R10*1)
	ADDQ       $32, BX
	LEAQ       (DX)(R10*4), DX
	ADDQ       $4, CX
	CMPQ       CX, R9
	JLT        tblock
	ADDQ       $4, AX
	CMPQ       AX, R8
	JLT        trows
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
