// AVX GEMM kernel: four rows of A against consecutive packed gemmNR = 4
// panels, a 4×8 tile of C per pair of panels and a 4×4 tile for an odd last
// one. In a pair, row l of the tile's B operand is row l of the first panel
// in the low half of a YMM register and row l of the second in the high half;
// the odd panel runs the same step on XMM registers.
//
// Bit-identity with the scalar reference rests on three things: each C
// element accumulates in its own lane, over the full K extent, in ascending
// l; the product and the sum are separate VMULPS and VADDPS, each rounding to
// float32 — never a fused multiply-add, whose single rounding differs from
// the scalar reference (`make ci` greps for it); and C += acc happens once at
// the end. VEX-encoded throughout, VZEROUPPER before RET.

#include "textflag.h"

// One l step of a pair: B row l from both panels at byte offset off, then
// acc_r += a_r[l+dl] * B for the four rows.
#define STEP(off, dl) \
	VMOVUPS      off(R12), X8          \
	VINSERTF128  $1, off(R13), Y8, Y8  \
	VBROADCASTSS dl(R8)(DX*4), Y9      \
	VMULPS       Y8, Y9, Y9            \
	VADDPS       Y9, Y0, Y0            \
	VBROADCASTSS dl(R9)(DX*4), Y10     \
	VMULPS       Y8, Y10, Y10          \
	VADDPS       Y10, Y1, Y1           \
	VBROADCASTSS dl(R10)(DX*4), Y11    \
	VMULPS       Y8, Y11, Y11          \
	VADDPS       Y11, Y2, Y2           \
	VBROADCASTSS dl(R11)(DX*4), Y12    \
	VMULPS       Y8, Y12, Y12          \
	VADDPS       Y12, Y3, Y3

// One l step of the odd panel: STEP on its four lanes.
#define STEP1 \
	VMOVUPS      (R12), X8          \
	VBROADCASTSS (R8)(DX*4), X9     \
	VMULPS       X8, X9, X9         \
	VADDPS       X9, X0, X0         \
	VBROADCASTSS (R9)(DX*4), X10    \
	VMULPS       X8, X10, X10       \
	VADDPS       X10, X1, X1        \
	VBROADCASTSS (R10)(DX*4), X11   \
	VMULPS       X8, X11, X11       \
	VADDPS       X11, X2, X2        \
	VBROADCASTSS (R11)(DX*4), X12   \
	VMULPS       X8, X12, X12       \
	VADDPS       X12, X3, X3

// func gemmRows4AVX(a, panels, c *float32, kc, ldc, np int)
//
// a points at A[i0][0] (rows kc floats apart), panels at the first of np
// adjacent panels (kc·4 floats each), c at C[i0][j] (rows ldc floats apart).
// kc and np must be positive.
//
// Register plan:
//   R8..R11  A row pointers       Y0..Y3   accumulator rows of the tile
//   R12,R13  panel cursors        Y8       B row {first panel, second panel}
//   DX       l                    Y9..Y12  broadcast A element, then product
//   SI       kc   R15  kc &^ 1    DI       C tile, BX  ldc in bytes
//   CX       panels left
TEXT ·gemmRows4AVX(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), R8
	MOVQ panels+8(FP), R12
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), SI
	MOVQ ldc+32(FP), BX
	MOVQ np+40(FP), CX
	LEAQ (R8)(SI*4), R9
	LEAQ (R9)(SI*4), R10
	LEAQ (R10)(SI*4), R11
	SHLQ $2, BX
	MOVQ SI, R14
	SHLQ $4, R14             // bytes in one panel
	MOVQ SI, R15
	ANDQ $-2, R15
	JMP  next

pair:
	LEAQ   (R12)(R14*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   DX, R15
	JGE    odd

loop2:
	STEP(0, 0)
	STEP(16, 4)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $2, DX
	CMPQ DX, R15
	JLT  loop2

odd:
	CMPQ DX, SI
	JGE  writeback
	STEP(0, 0)
	ADDQ $16, R12
	ADDQ $16, R13

writeback:
	MOVQ    DI, AX
	VMOVUPS (AX), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), Y9
	VADDPS  Y1, Y9, Y9
	VMOVUPS Y9, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), Y10
	VADDPS  Y2, Y10, Y10
	VMOVUPS Y10, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), Y11
	VADDPS  Y3, Y11, Y11
	VMOVUPS Y11, (AX)

	MOVQ R13, R12            // the second panel's end is the next pair's start
	ADDQ $32, DI
	SUBQ $2, CX

next:
	CMPQ  CX, $2
	JGE   pair
	TESTQ CX, CX
	JZ    done

	// The odd last panel, one l at a time, into a 4×4 tile.
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ   DX, DX

loop1:
	STEP1
	ADDQ $16, R12
	INCQ DX
	CMPQ DX, SI
	JLT  loop1

	MOVQ    DI, AX
	VMOVUPS (AX), X8
	VADDPS  X0, X8, X8
	VMOVUPS X8, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), X9
	VADDPS  X1, X9, X9
	VMOVUPS X9, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), X10
	VADDPS  X2, X10, X10
	VMOVUPS X10, (AX)
	ADDQ    BX, AX
	VMOVUPS (AX), X11
	VADDPS  X3, X11, X11
	VMOVUPS X11, (AX)

done:
	VZEROUPPER
	RET
