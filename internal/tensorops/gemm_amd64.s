// SSE2 4×4 GEMM micro-kernel. Each C element accumulates in its own vector
// lane over the full K extent in ascending-l order with separate MULPS and
// ADDPS (no FMA), so every lane performs exactly the float32 operation
// sequence of the scalar reference kernel and the result is bit-identical
// for a zeroed C. SSE2 is in the amd64 baseline (GOAMD64=v1), so this is
// the tier every amd64 can run; where the CPU has AVX it handles only an odd
// last panel (gemm_avx_amd64.s takes the pairs).

#include "textflag.h"

// func microKernel4SSE(a0, a1, a2, a3, panel, c0, c1, c2, c3 *float32, kc int)
//
// Register plan:
//   R8..R11  A row pointers      X0      packed {v0,v1,v2,v3}
//   R12      panel cursor        X1..X3  row-element loads
//   SI       kc                  X4..X7  accumulator rows of the 4×4 tile
//   DX       l                   X9      panel row {b0,b1,b2,b3}
//                                X10..X13 broadcast temporaries
TEXT ·microKernel4SSE(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ panel+32(FP), R12
	MOVQ kc+72(FP), SI
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  DX, DX
	JMP   cond

loop:
	// Pack the four A column elements into X0 = {v0,v1,v2,v3}. MOVSS from
	// memory zeroes the upper lanes, so the unpacks see no garbage.
	MOVSS (R8)(DX*4), X0
	MOVSS (R9)(DX*4), X1
	MOVSS (R10)(DX*4), X2
	MOVSS (R11)(DX*4), X3
	UNPCKLPS X1, X0
	UNPCKLPS X3, X2
	MOVLHPS X2, X0

	// C[r][0:4] += v_r * {b0,b1,b2,b3} for r = 0..3.
	MOVUPS (R12), X9
	MOVAPS X0, X10
	SHUFPS $0x00, X10, X10
	MULPS  X9, X10
	ADDPS  X10, X4
	MOVAPS X0, X11
	SHUFPS $0x55, X11, X11
	MULPS  X9, X11
	ADDPS  X11, X5
	MOVAPS X0, X12
	SHUFPS $0xAA, X12, X12
	MULPS  X9, X12
	ADDPS  X12, X6
	MOVAPS X0, X13
	SHUFPS $0xFF, X13, X13
	MULPS  X9, X13
	ADDPS  X13, X7

	ADDQ $16, R12
	INCQ DX

cond:
	CMPQ DX, SI
	JLT  loop

	// C tile writeback: one unaligned load/add/store per row.
	MOVQ   c0+40(FP), DI
	MOVUPS (DI), X0
	ADDPS  X4, X0
	MOVUPS X0, (DI)
	MOVQ   c1+48(FP), DI
	MOVUPS (DI), X0
	ADDPS  X5, X0
	MOVUPS X0, (DI)
	MOVQ   c2+56(FP), DI
	MOVUPS (DI), X0
	ADDPS  X6, X0
	MOVUPS X0, (DI)
	MOVQ   c3+64(FP), DI
	MOVUPS (DI), X0
	ADDPS  X7, X0
	MOVUPS X0, (DI)
	RET
