//go:build amd64

#include "textflag.h"

// Vectorized BiasTanh32: row[j] = FastTanh32(row[j] + bias[j]). Each
// iteration evaluates tanh32.go's scalar body for one vector of lanes,
// operation for operation:
//
//	x = row[j] + bias[j]
//	x = max(-clamp, min(clamp, x))     MINPS/MAXPS return their source
//	                                   operand on NaN, so x goes in
//	                                   there and a NaN passes through
//	tiny = -0.0004 < x && x < 0.0004   ordered compares: false on NaN
//	p = ((((((x²·a13 + a11)·x² + a9)·x² + a7)·x² + a5)·x² + a3)·x² + a1)·x
//	q = ((x²·b6 + b4)·x² + b2)·x² + b0
//	row[j] = tiny ? x : p/q
//
// with every multiply and add a separate MULPS/ADDPS (no FMA) and one
// DIVPS, all correctly rounded like their scalar forms, so each lane is
// bit-identical to FastTanh32. The select is a blend, not a branch:
// tiny lanes are zeroed before the rational (so x² never reaches the
// denormal range and p/q is +0 there) and OR-ed back in at the end.
// Callers guarantee len(row) % 8 == 0 and len(bias) >= len(row).

// FastTanh32's coefficients as float32 bits, in Horner order.
DATA tanhPoly<>+0(SB)/4, $0xa59f25c0  // a13
DATA tanhPoly<>+4(SB)/4, $0x2a61337e  // a11
DATA tanhPoly<>+8(SB)/4, $0xaebd37ff  // a9
DATA tanhPoly<>+12(SB)/4, $0x335c0041 // a7
DATA tanhPoly<>+16(SB)/4, $0x3779434a // a5
DATA tanhPoly<>+20(SB)/4, $0x3a270ded // a3
DATA tanhPoly<>+24(SB)/4, $0x3ba059dc // a1
DATA tanhPoly<>+28(SB)/4, $0x35a0d3d8 // b6
DATA tanhPoly<>+32(SB)/4, $0x38f895d6 // b4
DATA tanhPoly<>+36(SB)/4, $0x3b14aa05 // b2
DATA tanhPoly<>+40(SB)/4, $0x3ba059dd // b0
GLOBL tanhPoly<>(SB), RODATA|NOPTR, $44

// clamp, -clamp, 0.0004, -0.0004, each repeated over 16 bytes; the
// body broadcasts the first lane of each.
DATA tanhEdge<>+0(SB)/8, $0x40fcf84f40fcf84f
DATA tanhEdge<>+8(SB)/8, $0x40fcf84f40fcf84f
DATA tanhEdge<>+16(SB)/8, $0xc0fcf84fc0fcf84f
DATA tanhEdge<>+24(SB)/8, $0xc0fcf84fc0fcf84f
DATA tanhEdge<>+32(SB)/8, $0x39d1b71739d1b717
DATA tanhEdge<>+40(SB)/8, $0x39d1b71739d1b717
DATA tanhEdge<>+48(SB)/8, $0xb9d1b717b9d1b717
DATA tanhEdge<>+56(SB)/8, $0xb9d1b717b9d1b717
GLOBL tanhEdge<>(SB), RODATA|NOPTR, $64

// func biasTanhAVX2(row, bias []float32)
TEXT ·biasTanhAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ bias_base+24(FP), SI
	VBROADCASTSS tanhPoly<>+0(SB), Y5
	VBROADCASTSS tanhPoly<>+4(SB), Y6
	VBROADCASTSS tanhPoly<>+8(SB), Y7
	VBROADCASTSS tanhPoly<>+12(SB), Y8
	VBROADCASTSS tanhPoly<>+16(SB), Y9
	VBROADCASTSS tanhPoly<>+20(SB), Y10
	VBROADCASTSS tanhPoly<>+24(SB), Y11
	VBROADCASTSS tanhPoly<>+28(SB), Y12
	VBROADCASTSS tanhPoly<>+32(SB), Y13
	VBROADCASTSS tanhPoly<>+36(SB), Y14
	VBROADCASTSS tanhPoly<>+40(SB), Y15
	XORQ AX, AX

tanhavx_loop:
	CMPQ AX, CX
	JGE  tanhavx_done
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0   // x = row + bias
	VBROADCASTSS tanhEdge<>+0(SB), Y1
	VMINPS  Y0, Y1, Y0           // min(clamp, x)
	VBROADCASTSS tanhEdge<>+16(SB), Y1
	VMAXPS  Y0, Y1, Y0           // x = max(-clamp, ·)
	VBROADCASTSS tanhEdge<>+32(SB), Y1
	VCMPPS  $1, Y1, Y0, Y2       // x < 0.0004
	VBROADCASTSS tanhEdge<>+48(SB), Y1
	VCMPPS  $1, Y0, Y1, Y3       // -0.0004 < x
	VANDPS  Y3, Y2, Y2           // tiny-lane mask
	VANDPS  Y0, Y2, Y4           // Y4 = x in tiny lanes, +0 elsewhere
	VANDNPS Y0, Y2, Y0           // x in the other lanes, +0 in tiny ones
	VMULPS  Y0, Y0, Y1           // x²
	VMULPS  Y5, Y1, Y2
	VADDPS  Y6, Y2, Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y7, Y2, Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y8, Y2, Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y9, Y2, Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y10, Y2, Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y11, Y2, Y2
	VMULPS  Y0, Y2, Y2           // p
	VMULPS  Y12, Y1, Y3
	VADDPS  Y13, Y3, Y3
	VMULPS  Y1, Y3, Y3
	VADDPS  Y14, Y3, Y3
	VMULPS  Y1, Y3, Y3
	VADDPS  Y15, Y3, Y3          // q
	VDIVPS  Y3, Y2, Y2
	VORPS   Y4, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     tanhavx_loop

tanhavx_done:
	VZEROUPPER
	RET
