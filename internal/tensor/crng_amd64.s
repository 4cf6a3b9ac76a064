//go:build amd64

#include "textflag.h"

// The noise kernel's fast path on four AVX2 lanes, gaussAVX2 (see
// crng_amd64.go and scaleAddNormalGo; gaussAVX512, at the end, takes
// eight). Lane l of an iteration at element i mixes the counter
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

// crngConst: the counter offsets of lanes 0–7 (lane l·golden; the fifth,
// 4·golden, is also the AVX2 strip's step), the AVX-512 strip's step
// 8·golden, the two mix64 multipliers each followed by its high half, the
// bits of 2⁵² + 2³¹, the float64 abs mask, the zigRows offset mask 127·16
// and the layer mask 127.
DATA crngConst<>+0(SB)/8, $0
DATA crngConst<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA crngConst<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA crngConst<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA crngConst<>+32(SB)/8, $0x78dde6e5fd29f054
DATA crngConst<>+40(SB)/8, $0x1715609f7c746c69
DATA crngConst<>+48(SB)/8, $0xb54cda58fbbee87e
DATA crngConst<>+56(SB)/8, $0x538454127b096493
DATA crngConst<>+64(SB)/8, $0xf1bbcdcbfa53e0a8
DATA crngConst<>+72(SB)/8, $0xbf58476d1ce4e5b9
DATA crngConst<>+80(SB)/8, $0xbf58476d
DATA crngConst<>+88(SB)/8, $0x94d049bb133111eb
DATA crngConst<>+96(SB)/8, $0x94d049bb
DATA crngConst<>+104(SB)/8, $0x4330000080000000
DATA crngConst<>+112(SB)/8, $0x7fffffffffffffff
DATA crngConst<>+120(SB)/8, $0x7f0
DATA crngConst<>+128(SB)/8, $0x7f
GLOBL crngConst<>(SB), RODATA|NOPTR, $136

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
	VPBROADCASTQ 72(BX), Y4
	VPBROADCASTQ 80(BX), Y5
	VPBROADCASTQ 88(BX), Y6
	VPBROADCASTQ 96(BX), Y7
	VPBROADCASTQ 104(BX), Y8
	VPBROADCASTQ 112(BX), Y3
	VPBROADCASTQ 120(BX), Y10
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
	// holds the set bits of m, lowest first, one byte each; a four-lane
	// mask reads the first four.
	VMOVMSKPD Y14, BX
	XORL      $15, BX
	POPCNTL   BX, R11
	MOVL      (R9)(BX*8), BX
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

// func gaussAVX512(dst []float64, base uint64, scale, std float64, rej *[noiseChunk]uint8) int
// len(dst) is a positive multiple of 8, at most noiseChunk.
//
// The same fast path on eight lanes. mix64's multiplies are VPMULLQ, the
// low 64 bits of the product. j = int32(u) is sign-extended to 64 bits by
// a shift up and an arithmetic shift down; |j| (VPABSQ) is compared
// unsigned against zigKn64[k], so |MinInt32| = 2³¹ rejects, and
// VCVTQQ2PD makes float64(j) exactly. zigKn64[k] and zigWn[k] come by
// gathers. The float steps are gaussAVX2's, unfused and in its order; the
// accepted lanes are stored under the compare's mask.
//
// Registers: DI is dst, CX its length, AX the element, R8 zigWn, R9
// rejLanes, R10 rej, R15 zigKn64, DX the rejections so far, R14 the
// element in every byte and R13 eight in every byte; Z0 holds the eight
// counters, Z1 scale, Z2 std, Z4 and Z6 the mix64 multipliers, Z9 the
// counter step and Z10 the layer mask.
TEXT ·gaussAVX512(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         rej+48(FP), R10
	LEAQ         ·zigWn(SB), R8
	LEAQ         ·rejLanes(SB), R9
	LEAQ         ·zigKn64(SB), R15
	LEAQ         crngConst<>(SB), BX
	VPBROADCASTQ base+24(FP), Z0
	VPADDQ       (BX), Z0, Z0
	VBROADCASTSD scale+32(FP), Z1
	VBROADCASTSD std+40(FP), Z2
	VPBROADCASTQ 64(BX), Z9
	VPBROADCASTQ 72(BX), Z4
	VPBROADCASTQ 88(BX), Z6
	VPBROADCASTQ 128(BX), Z10
	MOVQ         $0x0808080808080808, R13
	XORQ         AX, AX
	XORQ         DX, DX
	XORQ         R14, R14

loop512:
	// u = mix64(counter), in Z11.
	VPSRLQ  $30, Z0, Z11
	VPXORQ  Z0, Z11, Z11
	VPMULLQ Z4, Z11, Z11
	VPSRLQ  $27, Z11, Z12
	VPXORQ  Z12, Z11, Z11
	VPMULLQ Z6, Z11, Z11
	VPSRLQ  $31, Z11, Z12
	VPXORQ  Z12, Z11, Z11
	VPADDQ  Z9, Z0, Z0

	// k to Z12, j sign-extended to Z13 and |j| to Z14.
	VPSRLQ $32, Z11, Z12
	VPANDQ Z10, Z12, Z12
	VPSLLQ $32, Z11, Z13
	VPSRAQ $32, Z13, Z13
	VPABSQ Z13, Z14

	// zigKn64[k] to Z15 and zigWn[k] to Z16 (a gather clears its mask);
	// accept where |j| < zigKn64[k]: K3.
	KXNORB     K1, K1, K1
	VPGATHERQQ (R15)(Z12*8), K1, Z15
	KXNORB     K2, K2, K2
	VGATHERQPD (R8)(Z12*8), K2, Z16
	VPCMPUQ    $1, Z15, Z14, K3

	// dst·scale + std·(float64(j)·zigWn[k]) into the accepted lanes.
	VCVTQQ2PD Z13, Z13
	VMULPD    Z16, Z13, Z13
	VMULPD    Z2, Z13, Z13
	VMOVUPD   (DI)(AX*8), Z17
	VMULPD    Z1, Z17, Z17
	VADDPD    Z13, Z17, Z17
	VMOVUPD   Z17, K3, (DI)(AX*8)

	// Append the rejected lanes' positions to rej, as gaussAVX2 does.
	KMOVB   K3, BX
	XORL    $0xff, BX
	POPCNTL BX, R11
	MOVQ    (R9)(BX*8), BX
	ADDQ    R14, BX
	MOVQ    BX, (R10)(DX*1)
	ADDQ    R11, DX
	ADDQ    R13, R14
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop512

	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET
