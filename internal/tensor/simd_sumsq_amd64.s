//go:build amd64

#include "textflag.h"

// SumSquares32's lane sums over a multiple-of-eight prefix: acc[l] is
// the float64 sum of float64(x[j])² over j ≡ l (mod 8), accumulated in
// increasing j from +0 — the definition in sumsquares32.go, which the
// scalar loop there follows too. VCVTPS2PD is exact, the square of a
// float32 is exact in float64, and VADDPD rounds like the scalar add, so
// both tiers write the same eight bit patterns.

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
