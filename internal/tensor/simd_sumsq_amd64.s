//go:build amd64

#include "textflag.h"

// SumSquares32's lane sums over a multiple-of-eight prefix: acc[l] is
// the float64 sum of float64(x[j])² over j ≡ l (mod 8), accumulated in
// increasing j from +0 — the definition in sumsquares32.go, which the
// scalar loop there follows too. CVTPS2PD is exact, the square of a
// float32 is exact in float64, and ADDPD rounds like the scalar add, so
// every tier writes the same eight bit patterns.

// func sumSquaresSSE(x []float32, acc *[8]float64)
TEXT ·sumSquaresSSE(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ acc+24(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX

sumsqsse_loop:
	CMPQ AX, CX
	JGE  sumsqsse_done
	CVTPS2PD (SI)(AX*4), X4
	CVTPS2PD 8(SI)(AX*4), X5
	CVTPS2PD 16(SI)(AX*4), X6
	CVTPS2PD 24(SI)(AX*4), X7
	MULPD X4, X4
	MULPD X5, X5
	MULPD X6, X6
	MULPD X7, X7
	ADDPD X4, X0
	ADDPD X5, X1
	ADDPD X6, X2
	ADDPD X7, X3
	ADDQ  $8, AX
	JMP   sumsqsse_loop

sumsqsse_done:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET

// func sumSquaresAVX2(x []float32, acc *[8]float64)
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ acc+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

sumsqavx_loop:
	CMPQ AX, CX
	JGE  sumsqavx_done
	VCVTPS2PD (SI)(AX*4), Y2
	VCVTPS2PD 16(SI)(AX*4), Y3
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	ADDQ   $8, AX
	JMP    sumsqavx_loop

sumsqavx_done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
