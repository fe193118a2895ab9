//go:build amd64

#include "textflag.h"

// Vectorized fused Adam sweeps (float32). Each iteration computes, for
// one vector of lanes and in exactly the scalar expression order:
//
//	gj = grads[j]*scale
//	mj = b1*fm[j] + omb1*gj            (omb1 = 1-β₁, precomputed)
//	vj = b2*fv[j] + (omb2*gj)*gj
//	fm[j], fv[j] = mj, vj
//	p  = params[j] - (lrT*mj)/(sqrt(vj)+eps)
//	params[j] = p
//	target[j] = target[j]*omal + p*al  (Soft variants only)
//
// SQRTPS/DIVPS are IEEE correctly rounded like MULPS/ADDPS/SUBPS, so
// these bodies are bit-identical to the scalar loops in simd.go (and to
// the generic loops in nn/adam.go) element for element — the sweep's
// shard- and tier-determinism contract survives vectorization intact.
// Callers guarantee len(params) % 8 == 0.

// func adamSweepAVX2(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32)
TEXT ·adamSweepAVX2(SB), NOSPLIT, $0-124
	MOVQ params_base+0(FP), DI
	MOVQ params_len+8(FP), CX
	MOVQ grads_base+24(FP), SI
	MOVQ fm_base+48(FP), R8
	MOVQ fv_base+72(FP), R9
	VBROADCASTSS lrT+96(FP), Y5
	VBROADCASTSS b1+100(FP), Y6
	VBROADCASTSS omb1+104(FP), Y7
	VBROADCASTSS b2+108(FP), Y8
	VBROADCASTSS omb2+112(FP), Y9
	VBROADCASTSS eps+116(FP), Y10
	VBROADCASTSS scale+120(FP), Y11
	XORQ AX, AX

adamavx_loop:
	CMPQ AX, CX
	JGE  adamavx_done
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  Y11, Y0, Y0
	VMOVUPS (R8)(AX*4), Y1
	VMULPS  Y6, Y1, Y1
	VMULPS  Y7, Y0, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (R8)(AX*4)
	VMULPS  Y9, Y0, Y2
	VMULPS  Y0, Y2, Y2
	VMOVUPS (R9)(AX*4), Y3
	VMULPS  Y8, Y3, Y3
	VADDPS  Y2, Y3, Y3
	VMOVUPS Y3, (R9)(AX*4)
	VSQRTPS Y3, Y3
	VADDPS  Y10, Y3, Y3
	VMULPS  Y5, Y1, Y1
	VDIVPS  Y3, Y1, Y1
	VMOVUPS (DI)(AX*4), Y0
	VSUBPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     adamavx_loop

adamavx_done:
	VZEROUPPER
	RET

// func adamSweepSoftAVX2(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32)
TEXT ·adamSweepSoftAVX2(SB), NOSPLIT, $0-156
	MOVQ params_base+0(FP), DI
	MOVQ params_len+8(FP), CX
	MOVQ grads_base+24(FP), SI
	MOVQ fm_base+48(FP), R8
	MOVQ fv_base+72(FP), R9
	MOVQ target_base+96(FP), R10
	VBROADCASTSS lrT+120(FP), Y5
	VBROADCASTSS b1+124(FP), Y6
	VBROADCASTSS omb1+128(FP), Y7
	VBROADCASTSS b2+132(FP), Y8
	VBROADCASTSS omb2+136(FP), Y9
	VBROADCASTSS eps+140(FP), Y10
	VBROADCASTSS scale+144(FP), Y11
	VBROADCASTSS al+148(FP), Y12
	VBROADCASTSS omal+152(FP), Y13
	XORQ AX, AX

adamsoftavx_loop:
	CMPQ AX, CX
	JGE  adamsoftavx_done
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  Y11, Y0, Y0
	VMOVUPS (R8)(AX*4), Y1
	VMULPS  Y6, Y1, Y1
	VMULPS  Y7, Y0, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (R8)(AX*4)
	VMULPS  Y9, Y0, Y2
	VMULPS  Y0, Y2, Y2
	VMOVUPS (R9)(AX*4), Y3
	VMULPS  Y8, Y3, Y3
	VADDPS  Y2, Y3, Y3
	VMOVUPS Y3, (R9)(AX*4)
	VSQRTPS Y3, Y3
	VADDPS  Y10, Y3, Y3
	VMULPS  Y5, Y1, Y1
	VDIVPS  Y3, Y1, Y1
	VMOVUPS (DI)(AX*4), Y0
	VSUBPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VMULPS  Y12, Y0, Y2
	VMOVUPS (R10)(AX*4), Y3
	VMULPS  Y13, Y3, Y3
	VADDPS  Y2, Y3, Y3
	VMOVUPS Y3, (R10)(AX*4)
	ADDQ    $8, AX
	JMP     adamsoftavx_loop

adamsoftavx_done:
	VZEROUPPER
	RET
