//go:build amd64

#include "textflag.h"

// The two passes of nn.ReduceMean (widen32.go): float32 ranks widened
// to float64 partial sums, then added to the last rank, scaled and
// rounded once. Callers guarantee len % 4 == 0. Every operation is
// correctly rounded, so each body equals the Go loops element for
// element.

// func widenSumSSE2(acc []float64, src []float32, first bool)
// acc[i] += float64(src[i]), or acc[i] = 0 + float64(src[i]) when first.
TEXT ·widenSumSSE2(SB), NOSPLIT, $0-49
	MOVQ  acc_base+0(FP), DI
	MOVQ  acc_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	XORQ  AX, AX
	CMPB  first+48(FP), $0
	JNE   wsumsse_first

wsumsse_loop:
	CMPQ     AX, CX
	JGE      wsumsse_done
	CVTPS2PD (SI)(AX*4), X0
	CVTPS2PD 8(SI)(AX*4), X1
	MOVUPD   (DI)(AX*8), X2
	MOVUPD   16(DI)(AX*8), X3
	ADDPD    X0, X2
	ADDPD    X1, X3
	MOVUPD   X2, (DI)(AX*8)
	MOVUPD   X3, 16(DI)(AX*8)
	ADDQ     $4, AX
	JMP      wsumsse_loop

wsumsse_first:
	XORPD X4, X4

wsumsse_firstloop:
	CMPQ     AX, CX
	JGE      wsumsse_done
	CVTPS2PD (SI)(AX*4), X0
	CVTPS2PD 8(SI)(AX*4), X1
	ADDPD    X4, X0
	ADDPD    X4, X1
	MOVUPD   X0, (DI)(AX*8)
	MOVUPD   X1, 16(DI)(AX*8)
	ADDQ     $4, AX
	JMP      wsumsse_firstloop

wsumsse_done:
	RET

// func widenMeanSSE2(dst []float32, acc []float64, last []float32, scale float64, div bool)
// dst[i] = float32((acc[i] + float64(last[i])) / scale) when div, else
// float32((acc[i] + float64(last[i])) * scale).
TEXT ·widenMeanSSE2(SB), NOSPLIT, $0-81
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	MOVQ     acc_base+24(FP), SI
	MOVQ     last_base+48(FP), R8
	MOVSD    scale+72(FP), X7
	UNPCKLPD X7, X7
	XORQ     AX, AX
	CMPB     div+80(FP), $0
	JNE      wmeansse_div

wmeansse_mul:
	CMPQ     AX, CX
	JGE      wmeansse_done
	CVTPS2PD (R8)(AX*4), X0
	CVTPS2PD 8(R8)(AX*4), X1
	MOVUPD   (SI)(AX*8), X2
	MOVUPD   16(SI)(AX*8), X3
	ADDPD    X0, X2
	ADDPD    X1, X3
	MULPD    X7, X2
	MULPD    X7, X3
	CVTPD2PS X2, X2
	CVTPD2PS X3, X3
	MOVLHPS  X3, X2
	MOVUPS   X2, (DI)(AX*4)
	ADDQ     $4, AX
	JMP      wmeansse_mul

wmeansse_div:
	CMPQ     AX, CX
	JGE      wmeansse_done
	CVTPS2PD (R8)(AX*4), X0
	CVTPS2PD 8(R8)(AX*4), X1
	MOVUPD   (SI)(AX*8), X2
	MOVUPD   16(SI)(AX*8), X3
	ADDPD    X0, X2
	ADDPD    X1, X3
	DIVPD    X7, X2
	DIVPD    X7, X3
	CVTPD2PS X2, X2
	CVTPD2PS X3, X3
	MOVLHPS  X3, X2
	MOVUPS   X2, (DI)(AX*4)
	ADDQ     $4, AX
	JMP      wmeansse_div

wmeansse_done:
	RET

// func widenSumAVX2(acc []float64, src []float32, first bool)
// widenSumSSE2 four float64 lanes at a time.
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
// widenMeanSSE2 four float64 lanes at a time.
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
