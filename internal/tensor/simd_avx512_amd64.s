//go:build amd64

#include "textflag.h"

// AVX-512 tier float32 GEMM tiles: 16 lanes per ZMM register. Only
// AVX512F instructions appear — no VL, DQ or BW forms — so the AVX512F
// CPUID bit is the whole requirement: ymm and xmm operands above 15
// occur only as the ymm/xmm side of a 512-bit instruction or in scalar
// EVEX forms. Multiplies and adds are issued separately (VMULPS +
// VADDPS, never FMA), and every output element goes through exactly the
// IEEE operations, operand order and summation order of the avx2 body
// it replaces, so the two tiers agree bit for bit. Both routines end
// with VZEROUPPER.

// loadBZ loads the 16 columns at byte offset OFF of the current quad's
// four b rows, (R8), (R8)(R14), (R8)(2·R14) and (CX), into Z16-Z19;
// loadBZm loads only the columns K2 selects and zeroes the rest, and
// reads no byte of the others.
#define loadBZ(OFF) \
	VMOVUPS OFF(R8), Z16; \
	VMOVUPS OFF(R8)(R14*1), Z17; \
	VMOVUPS OFF(R8)(R14*2), Z18; \
	VMOVUPS OFF(CX), Z19

#define loadBZm \
	VMOVUPS.Z (R8), K2, Z16; \
	VMOVUPS.Z (R8)(R14*1), K2, Z17; \
	VMOVUPS.Z (R8)(R14*2), K2, Z18; \
	VMOVUPS.Z (CX), K2, Z19

// quadZ accumulates the k quad loaded in Z16-Z19 into two 16-lane
// destination vectors DST0 and DST1, multipliers broadcast in Z8-Z11
// (row 0) and Z12-Z15 (row 1). Per element this is saxpy4x2TileAVX2's
// ((b0·a0 + b1·a1) + b2·a2) + b3·a3, then + d.
#define quadZ(DST0, DST1) \
	VMULPS Z8, Z16, Z20; \
	VMULPS Z9, Z17, Z21; \
	VADDPS Z21, Z20, Z20; \
	VMULPS Z10, Z18, Z21; \
	VADDPS Z21, Z20, Z20; \
	VMULPS Z11, Z19, Z21; \
	VADDPS Z21, Z20, Z20; \
	VADDPS DST0, Z20, DST0; \
	VMULPS Z12, Z16, Z22; \
	VMULPS Z13, Z17, Z23; \
	VADDPS Z23, Z22, Z22; \
	VMULPS Z14, Z18, Z23; \
	VADDPS Z23, Z22, Z22; \
	VMULPS Z15, Z19, Z23; \
	VADDPS Z23, Z22, Z22; \
	VADDPS DST1, Z22, DST1

// skipQuadZ jumps to SKIP when the eight multipliers of the current k
// quad — four at R10, four at R11, aK bytes (R9) apart — are all ±0.
#define skipQuadZ(SKIP) \
	LEAQ (R10)(R9*2), CX; \
	MOVL (R10), R13; \
	ORL  (R10)(R9*1), R13; \
	ORL  (CX), R13; \
	ORL  (CX)(R9*1), R13; \
	LEAQ (R11)(R9*2), CX; \
	ORL  (R11), R13; \
	ORL  (R11)(R9*1), R13; \
	ORL  (CX), R13; \
	ORL  (CX)(R9*1), R13; \
	SHLL $1, R13; \
	JZ   SKIP

// bcastQuadZ broadcasts the current quad's multipliers into Z8-Z15 and
// points CX at its fourth b row.
#define bcastQuadZ \
	LEAQ         (R10)(R9*2), CX; \
	VBROADCASTSS (R10), Z8; \
	VBROADCASTSS (R10)(R9*1), Z9; \
	VBROADCASTSS (CX), Z10; \
	VBROADCASTSS (CX)(R9*1), Z11; \
	LEAQ         (R11)(R9*2), CX; \
	VBROADCASTSS (R11), Z12; \
	VBROADCASTSS (R11)(R9*1), Z13; \
	VBROADCASTSS (CX), Z14; \
	VBROADCASTSS (CX)(R9*1), Z15; \
	LEAQ         (R8)(R14*2), CX; \
	ADDQ         R14, CX

// nextQuadZ advances the multiplier and b-row pointers by one k quad.
#define nextQuadZ \
	LEAQ (R10)(R9*4), R10; \
	LEAQ (R11)(R9*4), R11; \
	LEAQ (R8)(R14*4), R8

// func saxpy4x2TileAVX512(d *float32, dPitch int, a *float32, aRow, aK int, b *float32, bPitch, pairs, quads, seg int, skipZero bool)
// saxpy4x2TileAVX2 (simd_avx2_amd64.s) with the loops turned inside
// out: for each row pair, column chunks of 64, then 16, then the last
// seg % 16 under a mask hold both destination rows in registers while
// every k quad, in ascending order, accumulates into them, so d is
// loaded and stored once per call instead of once per quad. Each
// element still sees its quads in ascending k and each quad's
// operations in the avx2 body's order; a quad is skipped (skipZero)
// exactly when the avx2 body skips it. Requires pairs ≥ 1, quads ≥ 1
// and seg ≥ 1. The stride and seg arguments are scaled to bytes in
// place.
TEXT ·saxpy4x2TileAVX512(SB), NOSPLIT, $0-81
	MOVQ d+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ aK+32(FP), R9
	SHLQ $2, R9
	MOVQ bPitch+48(FP), R14
	SHLQ $2, R14
	SHLQ $2, dPitch+8(FP)
	SHLQ $2, aRow+24(FP)
	SHLQ $2, seg+72(FP)

ztile_pair:
	MOVQ dPitch+8(FP), AX
	LEAQ (DI)(AX*1), BX
	MOVQ aRow+24(FP), AX
	LEAQ (SI)(AX*1), DX
	XORQ AX, AX

ztile_chunk64:
	MOVQ    seg+72(FP), CX
	SUBQ    AX, CX
	CMPQ    CX, $256
	JLT     ztile_chunk16
	VMOVUPS (DI)(AX*1), Z0
	VMOVUPS 64(DI)(AX*1), Z1
	VMOVUPS 128(DI)(AX*1), Z2
	VMOVUPS 192(DI)(AX*1), Z3
	VMOVUPS (BX)(AX*1), Z4
	VMOVUPS 64(BX)(AX*1), Z5
	VMOVUPS 128(BX)(AX*1), Z6
	VMOVUPS 192(BX)(AX*1), Z7
	MOVQ    b+40(FP), R8
	ADDQ    AX, R8
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    quads+64(FP), R12

ztile_quad64:
	CMPB skipZero+80(FP), $0
	JEQ  ztile_bcast64
	skipQuadZ(ztile_next64)

ztile_bcast64:
	bcastQuadZ
	loadBZ(0)
	quadZ(Z0, Z4)
	loadBZ(64)
	quadZ(Z1, Z5)
	loadBZ(128)
	quadZ(Z2, Z6)
	loadBZ(192)
	quadZ(Z3, Z7)

ztile_next64:
	nextQuadZ
	DECQ    R12
	JNZ     ztile_quad64
	VMOVUPS Z0, (DI)(AX*1)
	VMOVUPS Z1, 64(DI)(AX*1)
	VMOVUPS Z2, 128(DI)(AX*1)
	VMOVUPS Z3, 192(DI)(AX*1)
	VMOVUPS Z4, (BX)(AX*1)
	VMOVUPS Z5, 64(BX)(AX*1)
	VMOVUPS Z6, 128(BX)(AX*1)
	VMOVUPS Z7, 192(BX)(AX*1)
	ADDQ    $256, AX
	JMP     ztile_chunk64

ztile_chunk16:
	MOVQ    seg+72(FP), CX
	SUBQ    AX, CX
	JZ      ztile_nextpair
	CMPQ    CX, $64
	JLT     ztile_masked
	VMOVUPS (DI)(AX*1), Z0
	VMOVUPS (BX)(AX*1), Z4
	MOVQ    b+40(FP), R8
	ADDQ    AX, R8
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    quads+64(FP), R12

ztile_quad16:
	CMPB skipZero+80(FP), $0
	JEQ  ztile_bcast16
	skipQuadZ(ztile_next16)

ztile_bcast16:
	bcastQuadZ
	loadBZ(0)
	quadZ(Z0, Z4)

ztile_next16:
	nextQuadZ
	DECQ    R12
	JNZ     ztile_quad16
	VMOVUPS Z0, (DI)(AX*1)
	VMOVUPS Z4, (BX)(AX*1)
	ADDQ    $64, AX
	JMP     ztile_chunk16

// The last seg % 16 columns: one 16-lane chunk under mask K2, which
// loads, computes and stores only those columns' lanes.
ztile_masked:
	SHRQ      $2, CX
	MOVL      $1, R13
	SHLL      CX, R13
	DECL      R13
	KMOVW     R13, K2
	VMOVUPS.Z (DI)(AX*1), K2, Z0
	VMOVUPS.Z (BX)(AX*1), K2, Z4
	MOVQ      b+40(FP), R8
	ADDQ      AX, R8
	MOVQ      SI, R10
	MOVQ      DX, R11
	MOVQ      quads+64(FP), R12

ztile_quadm:
	CMPB skipZero+80(FP), $0
	JEQ  ztile_bcastm
	skipQuadZ(ztile_nextm)

ztile_bcastm:
	bcastQuadZ
	loadBZm
	quadZ(Z0, Z4)

ztile_nextm:
	nextQuadZ
	DECQ    R12
	JNZ     ztile_quadm
	VMOVUPS Z0, K2, (DI)(AX*1)
	VMOVUPS Z4, K2, (BX)(AX*1)

ztile_nextpair:
	MOVQ dPitch+8(FP), AX
	LEAQ (DI)(AX*2), DI
	MOVQ aRow+24(FP), AX
	LEAQ (SI)(AX*2), SI
	DECQ pairs+56(FP)
	JNZ  ztile_pair
	VZEROUPPER
	RET

// The 4 × 4 dot tiles: every a row r (register 16+r) times every b
// row c (register 20+c) added into accumulator 4r + c through eight
// rotating product temps (registers 24-31), multiply then add, the a
// row as the first factor and the accumulator as the first addend, as
// in sdot2x2TileAVX2. dotTileZ adds 16 lanes, dotTile8Z only the low 8
// (K1 = 0xff) and dotTile1X one scalar lane.
#define dotTileZ \
	VMULPS Z20, Z16, Z24; \
	VADDPS Z24, Z0, Z0; \
	VMULPS Z21, Z16, Z25; \
	VADDPS Z25, Z1, Z1; \
	VMULPS Z22, Z16, Z26; \
	VADDPS Z26, Z2, Z2; \
	VMULPS Z23, Z16, Z27; \
	VADDPS Z27, Z3, Z3; \
	VMULPS Z20, Z17, Z28; \
	VADDPS Z28, Z4, Z4; \
	VMULPS Z21, Z17, Z29; \
	VADDPS Z29, Z5, Z5; \
	VMULPS Z22, Z17, Z30; \
	VADDPS Z30, Z6, Z6; \
	VMULPS Z23, Z17, Z31; \
	VADDPS Z31, Z7, Z7; \
	VMULPS Z20, Z18, Z24; \
	VADDPS Z24, Z8, Z8; \
	VMULPS Z21, Z18, Z25; \
	VADDPS Z25, Z9, Z9; \
	VMULPS Z22, Z18, Z26; \
	VADDPS Z26, Z10, Z10; \
	VMULPS Z23, Z18, Z27; \
	VADDPS Z27, Z11, Z11; \
	VMULPS Z20, Z19, Z28; \
	VADDPS Z28, Z12, Z12; \
	VMULPS Z21, Z19, Z29; \
	VADDPS Z29, Z13, Z13; \
	VMULPS Z22, Z19, Z30; \
	VADDPS Z30, Z14, Z14; \
	VMULPS Z23, Z19, Z31; \
	VADDPS Z31, Z15, Z15

#define dotTile8Z \
	VMULPS Z20, Z16, Z24; \
	VADDPS Z24, Z0, K1, Z0; \
	VMULPS Z21, Z16, Z25; \
	VADDPS Z25, Z1, K1, Z1; \
	VMULPS Z22, Z16, Z26; \
	VADDPS Z26, Z2, K1, Z2; \
	VMULPS Z23, Z16, Z27; \
	VADDPS Z27, Z3, K1, Z3; \
	VMULPS Z20, Z17, Z28; \
	VADDPS Z28, Z4, K1, Z4; \
	VMULPS Z21, Z17, Z29; \
	VADDPS Z29, Z5, K1, Z5; \
	VMULPS Z22, Z17, Z30; \
	VADDPS Z30, Z6, K1, Z6; \
	VMULPS Z23, Z17, Z31; \
	VADDPS Z31, Z7, K1, Z7; \
	VMULPS Z20, Z18, Z24; \
	VADDPS Z24, Z8, K1, Z8; \
	VMULPS Z21, Z18, Z25; \
	VADDPS Z25, Z9, K1, Z9; \
	VMULPS Z22, Z18, Z26; \
	VADDPS Z26, Z10, K1, Z10; \
	VMULPS Z23, Z18, Z27; \
	VADDPS Z27, Z11, K1, Z11; \
	VMULPS Z20, Z19, Z28; \
	VADDPS Z28, Z12, K1, Z12; \
	VMULPS Z21, Z19, Z29; \
	VADDPS Z29, Z13, K1, Z13; \
	VMULPS Z22, Z19, Z30; \
	VADDPS Z30, Z14, K1, Z14; \
	VMULPS Z23, Z19, Z31; \
	VADDPS Z31, Z15, K1, Z15

#define dotTile1X \
	VMULSS X20, X16, X24; \
	VADDSS X24, X0, X0; \
	VMULSS X21, X16, X25; \
	VADDSS X25, X1, X1; \
	VMULSS X22, X16, X26; \
	VADDSS X26, X2, X2; \
	VMULSS X23, X16, X27; \
	VADDSS X27, X3, X3; \
	VMULSS X20, X17, X28; \
	VADDSS X28, X4, X4; \
	VMULSS X21, X17, X29; \
	VADDSS X29, X5, X5; \
	VMULSS X22, X17, X30; \
	VADDSS X30, X6, X6; \
	VMULSS X23, X17, X31; \
	VADDSS X31, X7, X7; \
	VMULSS X20, X18, X24; \
	VADDSS X24, X8, X8; \
	VMULSS X21, X18, X25; \
	VADDSS X25, X9, X9; \
	VMULSS X22, X18, X26; \
	VADDSS X26, X10, X10; \
	VMULSS X23, X18, X27; \
	VADDSS X27, X11, X11; \
	VMULSS X20, X19, X28; \
	VADDSS X28, X12, X12; \
	VMULSS X21, X19, X29; \
	VADDSS X29, X13, X13; \
	VMULSS X22, X19, X30; \
	VADDSS X30, X14, X14; \
	VMULSS X23, X19, X31; \
	VADDSS X31, X15, X15

// foldZ reduces one 16-lane accumulator to its scalar in lane 0 exactly
// as sdotAVX2 folds its pair: the even accumulator is lanes 0-7 and the
// odd one lanes 8-15, so even + odd, then the high 128 bits onto the
// low, lanes 2,3 onto 0,1 and lane 1 onto lane 0. Lanes above the ones
// each step reads hold values no later step uses.
#define foldZ(Z, X, T, TY, TX) \
	VEXTRACTF64X4 $1, Z, TY; \
	VADDPS        T, Z, Z; \
	VEXTRACTF32X4 $1, Z, TX; \
	VADDPS        T, Z, Z; \
	VSHUFPS       $0xee, Z, Z, T; \
	VADDPS        T, Z, Z; \
	VSHUFPS       $0x55, Z, Z, T; \
	VADDSS        TX, X, X

// func sdot4x4TileAVX512(d *float32, dPitch int, a, b *float32, k, quads, cquads int)
// sdot2x2TileAVX2 (simd_avx2_amd64.s) with a four rows × four columns
// register tile:
//
//	for p in [0, quads), c in [0, cquads), r, s in [0, 4):
//	    d[(4p+r)·dPitch + 4c+s] = sdot(a[(4p+r)·k ...], b[(4c+s)·k ...])
//
// Each pass loads four a rows and four b rows once per 16 k and feeds
// sixteen dot products, one ZMM accumulator each. A 16-lane step is
// exactly sdotAVX2's even (low 8 lanes) and odd (high 8 lanes) 8-lane
// step pair, so lane for lane it adds what the avx2 accumulators add;
// the single 8-lane step goes into the low half under mask K1, then the
// fold and the k % 8 leftover products in ascending k follow sdotAVX2.
// Every output is bit-identical to a lone sdot over it. Requires k ≥ 8,
// quads ≥ 1 and cquads ≥ 1 (row and column quads).
TEXT ·sdot4x4TileAVX512(SB), NOSPLIT, $0-56
	MOVQ  $0xff, AX
	KMOVW AX, K1
	MOVQ  a+16(FP), SI
	MOVQ  k+32(FP), R13
	SHLQ  $2, R13
	MOVQ  dPitch+8(FP), R14
	SHLQ  $2, R14
	MOVQ  d+0(FP), DI

qtile_rows:
	MOVQ b+24(FP), R8
	MOVQ DI, DX
	MOVQ cquads+48(FP), R12

qtile_col:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ   SI, AX
	LEAQ   (SI)(R13*2), BX
	ADDQ   R13, BX
	MOVQ   R8, CX
	LEAQ   (R8)(R13*2), R10
	ADDQ   R13, R10
	MOVQ   k+32(FP), R11
	SHRQ   $4, R11
	JZ     qtile_tail8

qtile_loop16:
	VMOVUPS (AX), Z16
	VMOVUPS (AX)(R13*1), Z17
	VMOVUPS (AX)(R13*2), Z18
	VMOVUPS (BX), Z19
	VMOVUPS (CX), Z20
	VMOVUPS (CX)(R13*1), Z21
	VMOVUPS (CX)(R13*2), Z22
	VMOVUPS (R10), Z23
	dotTileZ
	ADDQ    $64, AX
	ADDQ    $64, BX
	ADDQ    $64, CX
	ADDQ    $64, R10
	DECQ    R11
	JNZ     qtile_loop16

qtile_tail8:
	TESTQ     $8, k+32(FP)
	JZ        qtile_fold
	VMOVUPS.Z (AX), K1, Z16
	VMOVUPS.Z (AX)(R13*1), K1, Z17
	VMOVUPS.Z (AX)(R13*2), K1, Z18
	VMOVUPS.Z (BX), K1, Z19
	VMOVUPS.Z (CX), K1, Z20
	VMOVUPS.Z (CX)(R13*1), K1, Z21
	VMOVUPS.Z (CX)(R13*2), K1, Z22
	VMOVUPS.Z (R10), K1, Z23
	dotTile8Z
	ADDQ      $32, AX
	ADDQ      $32, BX
	ADDQ      $32, CX
	ADDQ      $32, R10

qtile_fold:
	foldZ(Z0, X0, Z16, Y16, X16)
	foldZ(Z1, X1, Z17, Y17, X17)
	foldZ(Z2, X2, Z18, Y18, X18)
	foldZ(Z3, X3, Z19, Y19, X19)
	foldZ(Z4, X4, Z20, Y20, X20)
	foldZ(Z5, X5, Z21, Y21, X21)
	foldZ(Z6, X6, Z22, Y22, X22)
	foldZ(Z7, X7, Z23, Y23, X23)
	foldZ(Z8, X8, Z24, Y24, X24)
	foldZ(Z9, X9, Z25, Y25, X25)
	foldZ(Z10, X10, Z26, Y26, X26)
	foldZ(Z11, X11, Z27, Y27, X27)
	foldZ(Z12, X12, Z28, Y28, X28)
	foldZ(Z13, X13, Z29, Y29, X29)
	foldZ(Z14, X14, Z30, Y30, X30)
	foldZ(Z15, X15, Z31, Y31, X31)
	MOVQ k+32(FP), R11
	ANDQ $7, R11
	JZ   qtile_store

qtile_tail1:
	VMOVSS (AX), X16
	VMOVSS (AX)(R13*1), X17
	VMOVSS (AX)(R13*2), X18
	VMOVSS (BX), X19
	VMOVSS (CX), X20
	VMOVSS (CX)(R13*1), X21
	VMOVSS (CX)(R13*2), X22
	VMOVSS (R10), X23
	dotTile1X
	ADDQ   $4, AX
	ADDQ   $4, BX
	ADDQ   $4, CX
	ADDQ   $4, R10
	DECQ   R11
	JNZ    qtile_tail1

qtile_store:
	VMOVSS X0, (DX)
	VMOVSS X1, 4(DX)
	VMOVSS X2, 8(DX)
	VMOVSS X3, 12(DX)
	VMOVSS X4, (DX)(R14*1)
	VMOVSS X5, 4(DX)(R14*1)
	VMOVSS X6, 8(DX)(R14*1)
	VMOVSS X7, 12(DX)(R14*1)
	VMOVSS X8, (DX)(R14*2)
	VMOVSS X9, 4(DX)(R14*2)
	VMOVSS X10, 8(DX)(R14*2)
	VMOVSS X11, 12(DX)(R14*2)
	LEAQ   (DX)(R14*2), R11
	ADDQ   R14, R11
	VMOVSS X12, (R11)
	VMOVSS X13, 4(R11)
	VMOVSS X14, 8(R11)
	VMOVSS X15, 12(R11)
	ADDQ   $16, DX
	LEAQ   (R8)(R13*4), R8
	DECQ   R12
	JNZ    qtile_col

	LEAQ (SI)(R13*4), SI
	LEAQ (DI)(R14*4), DI
	DECQ quads+40(FP)
	JNZ  qtile_rows
	VZEROUPPER
	RET
