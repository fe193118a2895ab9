//go:build amd64

#include "textflag.h"

// AVX2-tier float32 kernels: 8 lanes per YMM register, 16 elements per
// main-loop iteration. Multiplies and adds are issued separately
// (VMULPS + VADDPS, never FMA) so every element rounds exactly as the
// scalar loops do — the tiers differ only in dot-reduction order.
// Callers (the wrappers in simd_amd64.go) guarantee len % 8 == 0.
// Every routine ends with VZEROUPPER so the legacy-encoded scalar code
// Go emits around the calls pays no AVX→SSE transition penalty.

// func saxpy4AVX2(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32)
// dst[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j], len(dst) % 8 == 0.
TEXT ·saxpy4AVX2(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), R8
	MOVQ x1_base+48(FP), R9
	MOVQ x2_base+72(FP), R10
	MOVQ x3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y4
	VBROADCASTSS a1+124(FP), Y5
	VBROADCASTSS a2+128(FP), Y6
	VBROADCASTSS a3+132(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

saxpy4avx_loop16:
	CMPQ AX, DX
	JGE  saxpy4avx_tail8
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS 32(R8)(AX*4), Y8
	VMULPS  Y4, Y0, Y0
	VMULPS  Y4, Y8, Y8
	VMOVUPS (R9)(AX*4), Y1
	VMOVUPS 32(R9)(AX*4), Y9
	VMULPS  Y5, Y1, Y1
	VMULPS  Y5, Y9, Y9
	VADDPS  Y1, Y0, Y0
	VADDPS  Y9, Y8, Y8
	VMOVUPS (R10)(AX*4), Y2
	VMOVUPS 32(R10)(AX*4), Y10
	VMULPS  Y6, Y2, Y2
	VMULPS  Y6, Y10, Y10
	VADDPS  Y2, Y0, Y0
	VADDPS  Y10, Y8, Y8
	VMOVUPS (R11)(AX*4), Y3
	VMOVUPS 32(R11)(AX*4), Y11
	VMULPS  Y7, Y3, Y3
	VMULPS  Y7, Y11, Y11
	VADDPS  Y3, Y0, Y0
	VADDPS  Y11, Y8, Y8
	VMOVUPS (DI)(AX*4), Y12
	VMOVUPS 32(DI)(AX*4), Y13
	VADDPS  Y12, Y0, Y0
	VADDPS  Y13, Y8, Y8
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y8, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP     saxpy4avx_loop16

saxpy4avx_tail8:
	CMPQ AX, CX
	JGE  saxpy4avx_done
	VMOVUPS (R8)(AX*4), Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS (R9)(AX*4), Y1
	VMULPS  Y5, Y1, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS (R10)(AX*4), Y2
	VMULPS  Y6, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS (R11)(AX*4), Y3
	VMULPS  Y7, Y3, Y3
	VADDPS  Y3, Y0, Y0
	VMOVUPS (DI)(AX*4), Y12
	VADDPS  Y12, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     saxpy4avx_tail8

saxpy4avx_done:
	VZEROUPPER
	RET

// func saxpy1AVX2(dst, x0 []float32, a0 float32)
// dst[j] += a0*x0[j], len(dst) % 8 == 0.
TEXT ·saxpy1AVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), R8
	VBROADCASTSS a0+48(FP), Y4
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

saxpy1avx_loop16:
	CMPQ AX, DX
	JGE  saxpy1avx_tail8
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS 32(R8)(AX*4), Y1
	VMULPS  Y4, Y0, Y0
	VMULPS  Y4, Y1, Y1
	VMOVUPS (DI)(AX*4), Y2
	VMOVUPS 32(DI)(AX*4), Y3
	VADDPS  Y2, Y0, Y0
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP     saxpy1avx_loop16

saxpy1avx_tail8:
	CMPQ AX, CX
	JGE  saxpy1avx_done
	VMOVUPS (R8)(AX*4), Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS (DI)(AX*4), Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     saxpy1avx_tail8

saxpy1avx_done:
	VZEROUPPER
	RET

// func sdotAVX2(a, b []float32) float32
// Returns sum(a[j]*b[j]); len(a) % 8 == 0. Two 8-lane accumulators
// folded at the end — a fixed reduction order, so deterministic (but a
// different order than the scalar tier).
TEXT ·sdotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

sdotavx_loop16:
	CMPQ AX, DX
	JGE  sdotavx_tail8
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DI)(AX*4), Y3
	VMULPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 32(SI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VMULPS  Y5, Y4, Y4
	VADDPS  Y4, Y1, Y1
	ADDQ    $16, AX
	JMP     sdotavx_loop16

sdotavx_tail8:
	CMPQ AX, CX
	JGE  sdotavx_fold
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DI)(AX*4), Y3
	VMULPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	ADDQ    $8, AX
	JMP     sdotavx_tail8

sdotavx_fold:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VZEROUPPER
	ADDPS        X1, X0
	MOVAPS       X0, X1
	MOVHLPS      X0, X1
	ADDPS        X1, X0
	MOVAPS       X0, X1
	SHUFPS       $0x55, X1, X1
	ADDSS        X1, X0
	MOVSS        X0, ret+48(FP)
	RET

// func sdot2x2TileAVX2(d *float32, dPitch int, a, b *float32, k, pairs, cols int)
// One column block of a·bᵀ in one call, two rows × two columns per pass:
//
//	for p in [0, pairs), c in [0, cols), r in {0, 1}, s in {0, 1}:
//	    d[(2p+r)·dPitch + 2c+s] = sdot(a[(2p+r)·k ...], b[(2c+s)·k ...])
//
// Rows of a and b are k elements apart; dPitch counts elements. Each
// pass loads two a rows and two b rows once and feeds four dot products,
// each in its own pair of YMM accumulators that keep sdotAVX2's order
// exactly: 16-lane steps split even/odd, at most one 8-lane step into the
// even accumulator, the same fold, then the k % 8 leftover products
// added one at a time in ascending k, as the sdot wrapper adds them.
// Every output is therefore bit-identical to a lone sdot over it.
// Requires k ≥ 8, pairs ≥ 1 and cols ≥ 1 (cols counts column pairs).
// dPitch is scaled to bytes in place.
TEXT ·sdot2x2TileAVX2(SB), NOSPLIT, $0-56
	MOVQ a+16(FP), SI
	MOVQ k+32(FP), R13
	MOVQ R13, CX
	ANDQ $-8, CX
	MOVQ R13, R10
	ANDQ $-16, R10
	SHLQ $2, R13
	SHLQ $2, dPitch+8(FP)
	MOVQ pairs+40(FP), R12

dtile_pair:
	LEAQ (SI)(R13*1), DX
	MOVQ d+0(FP), DI
	MOVQ dPitch+8(FP), AX
	LEAQ (DI)(AX*1), BX
	MOVQ b+24(FP), R8
	LEAQ (R8)(R13*1), R9
	MOVQ cols+48(FP), R11

dtile_col:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	TESTQ  R10, R10
	JZ     dtile_tail8

dtile_loop16:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (DX)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VMOVUPS (R9)(AX*4), Y11
	VMULPS  Y10, Y8, Y12
	VADDPS  Y12, Y0, Y0
	VMULPS  Y11, Y8, Y13
	VADDPS  Y13, Y2, Y2
	VMULPS  Y10, Y9, Y14
	VADDPS  Y14, Y4, Y4
	VMULPS  Y11, Y9, Y15
	VADDPS  Y15, Y6, Y6
	VMOVUPS 32(SI)(AX*4), Y8
	VMOVUPS 32(DX)(AX*4), Y9
	VMOVUPS 32(R8)(AX*4), Y10
	VMOVUPS 32(R9)(AX*4), Y11
	VMULPS  Y10, Y8, Y12
	VADDPS  Y12, Y1, Y1
	VMULPS  Y11, Y8, Y13
	VADDPS  Y13, Y3, Y3
	VMULPS  Y10, Y9, Y14
	VADDPS  Y14, Y5, Y5
	VMULPS  Y11, Y9, Y15
	VADDPS  Y15, Y7, Y7
	ADDQ    $16, AX
	CMPQ    AX, R10
	JLT     dtile_loop16

dtile_tail8:
	CMPQ    AX, CX
	JGE     dtile_fold
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (DX)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VMOVUPS (R9)(AX*4), Y11
	VMULPS  Y10, Y8, Y12
	VADDPS  Y12, Y0, Y0
	VMULPS  Y11, Y8, Y13
	VADDPS  Y13, Y2, Y2
	VMULPS  Y10, Y9, Y14
	VADDPS  Y14, Y4, Y4
	VMULPS  Y11, Y9, Y15
	VADDPS  Y15, Y6, Y6
	ADDQ    $8, AX

dtile_fold:
	// sdotAVX2's fold per output: even+odd, high half onto low, lanes
	// 2,3 onto 0,1, lane 1 onto lane 0.
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y2, X9
	VEXTRACTF128 $1, Y4, X10
	VEXTRACTF128 $1, Y6, X11
	VADDPS       X8, X0, X0
	VADDPS       X9, X2, X2
	VADDPS       X10, X4, X4
	VADDPS       X11, X6, X6
	VMOVHLPS     X0, X0, X8
	VMOVHLPS     X2, X2, X9
	VMOVHLPS     X4, X4, X10
	VMOVHLPS     X6, X6, X11
	VADDPS       X8, X0, X0
	VADDPS       X9, X2, X2
	VADDPS       X10, X4, X4
	VADDPS       X11, X6, X6
	VSHUFPS      $0x55, X0, X0, X8
	VSHUFPS      $0x55, X2, X2, X9
	VSHUFPS      $0x55, X4, X4, X10
	VSHUFPS      $0x55, X6, X6, X11
	VADDSS       X8, X0, X0
	VADDSS       X9, X2, X2
	VADDSS       X10, X4, X4
	VADDSS       X11, X6, X6

dtile_tail1:
	CMPQ   AX, k+32(FP)
	JGE    dtile_store
	VMOVSS (SI)(AX*4), X8
	VMOVSS (DX)(AX*4), X9
	VMOVSS (R8)(AX*4), X10
	VMOVSS (R9)(AX*4), X11
	VMULSS X10, X8, X12
	VADDSS X12, X0, X0
	VMULSS X11, X8, X13
	VADDSS X13, X2, X2
	VMULSS X10, X9, X14
	VADDSS X14, X4, X4
	VMULSS X11, X9, X15
	VADDSS X15, X6, X6
	INCQ   AX
	JMP    dtile_tail1

dtile_store:
	VMOVSS X0, (DI)
	VMOVSS X2, 4(DI)
	VMOVSS X4, (BX)
	VMOVSS X6, 4(BX)
	ADDQ   $8, DI
	ADDQ   $8, BX
	LEAQ   (R8)(R13*2), R8
	LEAQ   (R9)(R13*2), R9
	DECQ   R11
	JNZ    dtile_col

	LEAQ (SI)(R13*2), SI
	MOVQ dPitch+8(FP), AX
	MOVQ d+0(FP), DI
	LEAQ (DI)(AX*2), DI
	MOVQ DI, d+0(FP)
	DECQ R12
	JNZ  dtile_pair
	VZEROUPPER
	RET

// func saxpy4x2TileAVX2(d *float32, dPitch int, a *float32, aRow, aK int, b *float32, bPitch, pairs, quads, seg int, skipZero bool)
// One operand tile in one call: a register-blocked pair of saxpy4s —
// the four operand-row vectors are loaded once and feed both destination
// rows, halving the dominant tile read traffic — under the row-pair and
// k-quad loops the Go callers used to run around it.
//
//	for p in [0, pairs), q in [0, quads):
//	    d[2p·dPitch + j]     += quad(a[2p·aRow + 4q·aK ...],     b[4q·bPitch + j ...])
//	    d[(2p+1)·dPitch + j] += quad(a[(2p+1)·aRow + 4q·aK ...], b[4q·bPitch + j ...])
//	quad(a, b) = ((a[0]·b[0] + a[aK]·b[bPitch]) + a[2aK]·b[2bPitch]) + a[3aK]·b[3bPitch]
//
// for j in [0, seg); strides count elements. With skipZero a quad whose
// eight multipliers are all ±0 is skipped, as mulTransAF32 always did.
// Every element sees exactly the operations, in exactly the order, of
// the per-call path. Requires pairs ≥ 1, quads ≥ 1 and seg ≥ 1:
// columns run 8 lanes at a time, then 4 on XMM, then one at a time.
// The stride arguments are scaled to bytes in place.
TEXT ·saxpy4x2TileAVX2(SB), NOSPLIT, $0-81
	MOVQ d+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ pairs+56(FP), R13
	MOVQ seg+72(FP), CX
	ANDQ $-8, CX
	SHLQ $2, dPitch+8(FP)
	SHLQ $2, aRow+24(FP)
	SHLQ $2, aK+32(FP)
	SHLQ $2, bPitch+48(FP)

tile_pair:
	MOVQ dPitch+8(FP), AX
	LEAQ (DI)(AX*1), BX
	MOVQ aRow+24(FP), AX
	LEAQ (SI)(AX*1), DX
	MOVQ b+40(FP), R8
	MOVQ quads+64(FP), R12

tile_quad:
	MOVQ aK+32(FP), R9
	LEAQ (SI)(R9*2), R10
	LEAQ (DX)(R9*2), R11
	CMPB skipZero+80(FP), $0
	JEQ  tile_bcast
	MOVL (SI), AX
	ORL  (SI)(R9*1), AX
	ORL  (R10), AX
	ORL  (R10)(R9*1), AX
	ORL  (DX), AX
	ORL  (DX)(R9*1), AX
	ORL  (R11), AX
	ORL  (R11)(R9*1), AX
	SHLL $1, AX
	JZ   tile_nextquad

tile_bcast:
	VBROADCASTSS (SI), Y7
	VBROADCASTSS (SI)(R9*1), Y8
	VBROADCASTSS (R10), Y9
	VBROADCASTSS (R10)(R9*1), Y10
	VBROADCASTSS (DX), Y11
	VBROADCASTSS (DX)(R9*1), Y12
	VBROADCASTSS (R11), Y13
	VBROADCASTSS (R11)(R9*1), Y14
	MOVQ bPitch+48(FP), AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	XORQ AX, AX
	TESTQ CX, CX
	JZ   tile_tail4

tile_loop8:
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y1
	VMOVUPS (R10)(AX*4), Y2
	VMOVUPS (R11)(AX*4), Y3
	VMULPS  Y7, Y0, Y4
	VMULPS  Y8, Y1, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  Y9, Y2, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  Y10, Y3, Y6
	VADDPS  Y6, Y4, Y4
	VADDPS  (DI)(AX*4), Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	VMULPS  Y11, Y0, Y5
	VMULPS  Y12, Y1, Y6
	VADDPS  Y6, Y5, Y5
	VMULPS  Y13, Y2, Y6
	VADDPS  Y6, Y5, Y5
	VMULPS  Y14, Y3, Y6
	VADDPS  Y6, Y5, Y5
	VADDPS  (BX)(AX*4), Y5, Y5
	VMOVUPS Y5, (BX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     tile_loop8

tile_tail4:
	TESTQ $4, seg+72(FP)
	JZ    tile_tail1
	VMOVUPS (R8)(AX*4), X0
	VMOVUPS (R9)(AX*4), X1
	VMOVUPS (R10)(AX*4), X2
	VMOVUPS (R11)(AX*4), X3
	VMULPS  X7, X0, X4
	VMULPS  X8, X1, X6
	VADDPS  X6, X4, X4
	VMULPS  X9, X2, X6
	VADDPS  X6, X4, X4
	VMULPS  X10, X3, X6
	VADDPS  X6, X4, X4
	VADDPS  (DI)(AX*4), X4, X4
	VMOVUPS X4, (DI)(AX*4)
	VMULPS  X11, X0, X5
	VMULPS  X12, X1, X6
	VADDPS  X6, X5, X5
	VMULPS  X13, X2, X6
	VADDPS  X6, X5, X5
	VMULPS  X14, X3, X6
	VADDPS  X6, X5, X5
	VADDPS  (BX)(AX*4), X5, X5
	VMOVUPS X5, (BX)(AX*4)
	ADDQ    $4, AX

tile_tail1:
	CMPQ AX, seg+72(FP)
	JGE  tile_nextquad
	VMOVSS (R8)(AX*4), X0
	VMOVSS (R9)(AX*4), X1
	VMOVSS (R10)(AX*4), X2
	VMOVSS (R11)(AX*4), X3
	VMULSS X7, X0, X4
	VMULSS X8, X1, X6
	VADDSS X6, X4, X4
	VMULSS X9, X2, X6
	VADDSS X6, X4, X4
	VMULSS X10, X3, X6
	VADDSS X6, X4, X4
	VADDSS (DI)(AX*4), X4, X4
	VMOVSS X4, (DI)(AX*4)
	VMULSS X11, X0, X5
	VMULSS X12, X1, X6
	VADDSS X6, X5, X5
	VMULSS X13, X2, X6
	VADDSS X6, X5, X5
	VMULSS X14, X3, X6
	VADDSS X6, X5, X5
	VADDSS (BX)(AX*4), X5, X5
	VMOVSS X5, (BX)(AX*4)
	INCQ   AX
	JMP    tile_tail1

tile_nextquad:
	MOVQ aK+32(FP), AX
	LEAQ (SI)(AX*4), SI
	LEAQ (DX)(AX*4), DX
	MOVQ bPitch+48(FP), AX
	LEAQ (R8)(AX*4), R8
	DECQ R12
	JNZ  tile_quad

	MOVQ dPitch+8(FP), AX
	LEAQ (DI)(AX*2), DI
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), AX
	LEAQ (SI)(AX*2), SI
	MOVQ SI, a+16(FP)
	DECQ R13
	JNZ  tile_pair
	VZEROUPPER
	RET
