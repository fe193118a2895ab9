//go:build amd64

#include "textflag.h"

// The two passes of nn.ReduceMean (widen32.go): float32 ranks widened
// to float64 partial sums, then added to the last rank, scaled and
// rounded once, four float64 lanes per YMM register. Callers guarantee
// len % 4 == 0. Every operation is
// correctly rounded, so each body equals the Go loops element for
// element.

// func widenSumAVX2(acc []float64, src []float32, first bool)
// acc[i] += float64(src[i]), or acc[i] = 0 + float64(src[i]) when first.
TEXT ·widenSumAVX2(SB), NOSPLIT, $0-49
	MOVQ   acc_base+0(FP), DI
	MOVQ   acc_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	XORQ   AX, AX
	VXORPD Y4, Y4, Y4
	CMPB   first+48(FP), $0
	JNE    wsumavx_first

wsumavx_loop:
	CMPQ      AX, CX
	JGE       wsumavx_done
	VCVTPS2PD (SI)(AX*4), Y0
	VADDPD    (DI)(AX*8), Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       wsumavx_loop

wsumavx_first:
	CMPQ      AX, CX
	JGE       wsumavx_done
	VCVTPS2PD (SI)(AX*4), Y0
	VADDPD    Y4, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       wsumavx_first

wsumavx_done:
	VZEROUPPER
	RET

// func widenMeanAVX2(dst []float32, acc []float64, last []float32, scale float64, div bool)
// dst[i] = float32((acc[i] + float64(last[i])) / scale) when div, else
// float32((acc[i] + float64(last[i])) * scale).
TEXT ·widenMeanAVX2(SB), NOSPLIT, $0-81
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         acc_base+24(FP), SI
	MOVQ         last_base+48(FP), R8
	VBROADCASTSD scale+72(FP), Y7
	XORQ         AX, AX
	CMPB         div+80(FP), $0
	JNE          wmeanavx_div

wmeanavx_mul:
	CMPQ       AX, CX
	JGE        wmeanavx_done
	VCVTPS2PD  (R8)(AX*4), Y0
	VADDPD     (SI)(AX*8), Y0, Y0
	VMULPD     Y7, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        wmeanavx_mul

wmeanavx_div:
	CMPQ       AX, CX
	JGE        wmeanavx_done
	VCVTPS2PD  (R8)(AX*4), Y0
	VADDPD     (SI)(AX*8), Y0, Y0
	VDIVPD     Y7, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        wmeanavx_div

wmeanavx_done:
	VZEROUPPER
	RET
