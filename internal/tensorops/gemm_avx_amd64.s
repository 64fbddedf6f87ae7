// AVX GEMM kernel: four rows of A against consecutive pairs of packed
// gemmNR = 4 panels, a 4×8 tile of C per pair. The panel layout is the SSE2
// kernel's; row l of the tile's B operand is row l of the first panel in the
// low half of a YMM register and row l of the second in the high half.
//
// Bit-identity rests on three things, the same three as gemm_amd64.s: each
// C element accumulates in its own lane, over the full K extent, in
// ascending l; the product and the sum are separate VMULPS and VADDPS, each
// rounding to float32 — never a fused multiply-add, whose single rounding
// differs from the scalar reference (`make ci` greps for it); and C += acc
// happens once at the end. VEX-encoded throughout, VZEROUPPER before RET.

#include "textflag.h"

// One l step: B row l from both panels at byte offset off, then
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

// func gemmRows4AVX(a, panels, c *float32, kc, ldc, pairs int)
//
// a points at A[i0][0] (rows kc floats apart), panels at the first of
// 2·pairs adjacent panels (kc·4 floats each), c at C[i0][j] (rows ldc floats
// apart). kc and pairs must be positive.
//
// Register plan:
//   R8..R11  A row pointers       Y0..Y3   accumulator rows of the 4×8 tile
//   R12,R13  panel cursors        Y8       B row {first panel, second panel}
//   DX       l                    Y9..Y12  broadcast A element, then product
//   SI       kc   R15  kc &^ 1    DI       C tile, BX  ldc in bytes
//   CX       pairs left
TEXT ·gemmRows4AVX(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), R8
	MOVQ panels+8(FP), R12
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), SI
	MOVQ ldc+32(FP), BX
	MOVQ pairs+40(FP), CX
	LEAQ (R8)(SI*4), R9
	LEAQ (R9)(SI*4), R10
	LEAQ (R10)(SI*4), R11
	SHLQ $2, BX
	MOVQ SI, R14
	SHLQ $4, R14             // bytes in one panel
	MOVQ SI, R15
	ANDQ $-2, R15

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
	DECQ CX
	JNZ  pair
	VZEROUPPER
	RET
