//go:build amd64

#include "textflag.h"

// The noise kernel's fast path on four lanes (see crng_amd64.go and
// scaleAddNormalGo). Lane l of an iteration at element i mixes the counter
// base + (i+l)·golden. Every integer step is exact: each 64-bit multiply
// of mix64 is composed from three 32×32→64 partial products (MUL64), which
// is the product mod 2⁶⁴. j = int32(u) becomes a float64 exactly, by way
// of the bits of 2⁵² + 2³¹ + j; the compare |j| < zigKn[k] then runs on
// doubles that hold both integers exactly, so it is Go's unsigned compare
// and |MinInt32| = 2³¹ rejects. The float steps are the Go expression's,
// one rounding each and never fused: float64(j)·zigWn[k], then dst·scale
// and std·z, then their sum with dst·scale first (x86 returns the first
// operand's NaN when both are NaN; Go leaves that order open, so the
// payload of a NaN + NaN is not part of the contract). Rejected lanes are
// not stored; their positions go to rej.
//
// Registers: DI is dst, CX its length, AX the element, R8 zigRows, R9
// rejLanes, R10 rej, DX the rejections so far and R14 the element in every
// byte; Y0 holds the four counters, Y1 scale, Y2 std, Y3 the float64 abs
// mask, Y4–Y7 the low and high halves of the two mix64 multipliers, Y8
// the bits of 2⁵² + 2³¹, Y9 the counter step and Y10 the row offset mask.

DATA crngConst<>+0(SB)/8, $0
DATA crngConst<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA crngConst<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA crngConst<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA crngConst<>+32(SB)/8, $0x78dde6e5fd29f054
DATA crngConst<>+40(SB)/8, $0xbf58476d1ce4e5b9
DATA crngConst<>+48(SB)/8, $0xbf58476d
DATA crngConst<>+56(SB)/8, $0x94d049bb133111eb
DATA crngConst<>+64(SB)/8, $0x94d049bb
DATA crngConst<>+72(SB)/8, $0x4330000080000000
DATA crngConst<>+80(SB)/8, $0x7fffffffffffffff
DATA crngConst<>+88(SB)/8, $0x7f0
GLOBL crngConst<>(SB), RODATA|NOPTR, $96

// MUL64 sets Z to Z·M mod 2⁶⁴, where L holds M and H holds M>>32: the
// high-by-low and low-by-high partial products, summed and shifted up 32,
// plus the low-by-low one. It clobbers T1 and T2.
#define MUL64(Z, L, H, T1, T2) \
	VPSRLQ   $32, Z, T1; \
	VPMULUDQ L, T1, T1; \
	VPMULUDQ H, Z, T2; \
	VPADDQ   T2, T1, T1; \
	VPSLLQ   $32, T1, T1; \
	VPMULUDQ L, Z, Z; \
	VPADDQ   T1, Z, Z

// func gaussAVX2(dst []float64, base uint64, scale, std float64, rej *[noiseChunk]uint8) int
// len(dst) is a positive multiple of 4, at most noiseChunk.
TEXT ·gaussAVX2(SB), NOSPLIT, $32-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         rej+48(FP), R10
	LEAQ         ·zigRows(SB), R8
	LEAQ         ·rejLanes(SB), R9
	LEAQ         crngConst<>(SB), BX
	VPBROADCASTQ base+24(FP), Y0
	VPADDQ       (BX), Y0, Y0
	VBROADCASTSD scale+32(FP), Y1
	VBROADCASTSD std+40(FP), Y2
	VPBROADCASTQ 32(BX), Y9
	VPBROADCASTQ 40(BX), Y4
	VPBROADCASTQ 48(BX), Y5
	VPBROADCASTQ 56(BX), Y6
	VPBROADCASTQ 64(BX), Y7
	VPBROADCASTQ 72(BX), Y8
	VPBROADCASTQ 80(BX), Y3
	VPBROADCASTQ 88(BX), Y10
	XORQ         AX, AX
	XORQ         DX, DX
	XORQ         R14, R14

loop:
	// u = mix64(counter), in Y11.
	VPSRLQ $30, Y0, Y11
	VPXOR  Y0, Y11, Y11
	MUL64(Y11, Y4, Y5, Y12, Y13)
	VPSRLQ $27, Y11, Y12
	VPXOR  Y12, Y11, Y11
	MUL64(Y11, Y6, Y7, Y12, Y13)
	VPSRLQ $31, Y11, Y12
	VPXOR  Y12, Y11, Y11
	VPADDQ Y9, Y0, Y0

	// k·16, the offset of lane l's zigRows row, in SI, R11, R12, R13.
	VPSRLQ  $28, Y11, Y12
	VPAND   Y10, Y12, Y12
	VMOVDQU Y12, (SP)
	MOVQ    (SP), SI
	MOVQ    8(SP), R11
	MOVQ    16(SP), R12
	MOVQ    24(SP), R13

	// zigWn[k] to Y12 and float64(zigKn[k]) to Y14.
	VMOVDQU     (R8)(SI*1), X12
	VINSERTI128 $1, (R8)(R12*1), Y12, Y12
	VMOVDQU     (R8)(R11*1), X13
	VINSERTI128 $1, (R8)(R13*1), Y13, Y13
	VUNPCKHPD   Y13, Y12, Y14
	VUNPCKLPD   Y13, Y12, Y12

	// float64(j) to Y13; accept where |j| < zigKn[k]: Y14 all ones.
	VPXOR    Y8, Y11, Y13
	VPBLENDD $0xaa, Y8, Y13, Y13
	VSUBPD   Y8, Y13, Y13
	VANDPD   Y3, Y13, Y15
	VCMPPD   $0x11, Y14, Y15, Y14

	// dst·scale + std·(float64(j)·zigWn[k]) into the accepted lanes.
	VMULPD     Y12, Y13, Y13
	VMULPD     Y2, Y13, Y13
	VMOVUPD    (DI)(AX*8), Y15
	VMULPD     Y1, Y15, Y15
	VADDPD     Y13, Y15, Y15
	VMASKMOVPD Y15, Y14, (DI)(AX*8)

	// Append the rejected lanes' positions to rej: row m of rejLanes
	// holds the set bits of m, lowest first, one byte each.
	VMOVMSKPD Y14, BX
	XORL      $15, BX
	POPCNTL   BX, R11
	MOVL      (R9)(BX*4), BX
	ADDL      R14, BX
	MOVL      BX, (R10)(DX*1)
	ADDQ      R11, DX
	ADDL      $0x04040404, R14
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET
