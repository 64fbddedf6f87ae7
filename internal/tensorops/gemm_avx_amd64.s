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
// the scalar reference (`make ci` greps for it); and C = acc is stored once at
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
	VMOVUPS Y0, (AX)
	ADDQ    BX, AX
	VMOVUPS Y1, (AX)
	ADDQ    BX, AX
	VMOVUPS Y2, (AX)
	ADDQ    BX, AX
	VMOVUPS Y3, (AX)

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
	VMOVUPS X0, (AX)
	ADDQ    BX, AX
	VMOVUPS X1, (AX)
	ADDQ    BX, AX
	VMOVUPS X2, (AX)
	ADDQ    BX, AX
	VMOVUPS X3, (AX)

done:
	VZEROUPPER
	RET

// One l step of one pair of the one-row kernel: B row l of the pair's two
// panels (cursor P, the second panel R14 bytes on) times the broadcast A
// element in Y15, added into accumulator ACC; XT/YT is scratch.
#define ROW1(P, XT, YT, ACC) \
	VMOVUPS     P, XT                 \
	VINSERTF128 $1, P(R14*1), YT, YT  \
	VMULPS      YT, Y15, YT           \
	VADDPS      YT, ACC, ACC

// func gemmRow1AVX(a, panels, c *float32, kc, np int)
//
// One row of A against np adjacent packed panels, into the C row at c: the
// row kernel under four rows. Four panel pairs are in flight at a time (a
// 1×32 strip in Y0..Y3), then one pair, then an odd last panel on XMM. An
// l whose A element is ±0 is skipped for every column, as the reference
// skips it; otherwise each lane's product and sum round on their own, in
// ascending l, and C = acc is stored once per strip. kc and np must be
// positive.
//
// Register plan:
//   SI  A row        DX  l             CX  kc          R15 kc &^ 1
//   DI  C strip      BX  panels left   R14 bytes in one panel
//   R12 strip's first panel
//   R8..R11  cursors of the strip's pairs (first panel of each)
//   Y15 broadcast A element              Y8..Y11 B rows, then products
TEXT ·gemmRow1AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ panels+8(FP), R12
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ np+32(FP), BX
	MOVQ CX, R14
	SHLQ $4, R14
	MOVQ CX, R15
	ANDQ $-2, R15
	JMP  next8

strip8:
	MOVQ   R12, R8
	LEAQ   (R8)(R14*2), R9
	LEAQ   (R9)(R14*2), R10
	LEAQ   (R10)(R14*2), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   DX, R15
	JGE    odd8

loop8:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip8a
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R8), X8, Y8, Y0)
	ROW1((R9), X9, Y9, Y1)
	ROW1((R10), X10, Y10, Y2)
	ROW1((R11), X11, Y11, Y3)

skip8a:
	MOVL         4(SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip8b
	VBROADCASTSS 4(SI)(DX*4), Y15
	ROW1(16(R8), X8, Y8, Y0)
	ROW1(16(R9), X9, Y9, Y1)
	ROW1(16(R10), X10, Y10, Y2)
	ROW1(16(R11), X11, Y11, Y3)

skip8b:
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $2, DX
	CMPQ DX, R15
	JLT  loop8

odd8:
	CMPQ         DX, CX
	JGE          done8
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip8c
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R8), X8, Y8, Y0)
	ROW1((R9), X9, Y9, Y1)
	ROW1((R10), X10, Y10, Y2)
	ROW1((R11), X11, Y11, Y3)

skip8c:
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11

done8:

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R11)(R14*1), R12 // past the strip's last panel
	SUBQ    $8, BX

next8:
	CMPQ BX, $8
	JGE  strip8
	JMP  next2

strip2:
	MOVQ   R12, R8
	VXORPS Y0, Y0, Y0
	XORQ   DX, DX

loop2:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip2
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R8), X8, Y8, Y0)

skip2:
	ADDQ $16, R8
	INCQ DX
	CMPQ DX, CX
	JLT  loop2

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R8)(R14*1), R12
	SUBQ    $2, BX

next2:
	CMPQ  BX, $2
	JGE   strip2
	TESTQ BX, BX
	JZ    row1done

	// The odd last panel on XMM.
	VXORPS X0, X0, X0
	XORQ   DX, DX

loop1:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip1
	VBROADCASTSS (SI)(DX*4), X15
	VMOVUPS      (R12), X8
	VMULPS       X8, X15, X8
	VADDPS       X8, X0, X0

skip1:
	ADDQ $16, R12
	INCQ DX
	CMPQ DX, CX
	JLT  loop1
	VMOVUPS X0, (DI)

row1done:
	VZEROUPPER
	RET
