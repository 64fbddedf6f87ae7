// AVX GEMM kernel: four rows of A against consecutive packed gemmNR = 8
// panels, a 4×16 tile of C per pair of panels and a 4×8 tile for an odd last
// one. Row l of a panel is one YMM register, loaded whole; a pair keeps eight
// accumulators, one per (tile row, panel).
//
// Bit-identity with the scalar reference rests on three things: each C
// element accumulates in its own lane, over the full K extent, in ascending
// l; the product and the sum are separate VMULPS and VADDPS, each rounding to
// float32 — never a fused multiply-add, whose single rounding differs from
// the scalar reference (`make ci` greps for it); and C = acc is stored once at
// the end. Every product is A·B and every sum acc + product in operand order,
// so a NaN operand propagates as in the scalar kernels. VEX-encoded
// throughout, VZEROUPPER before RET.

#include "textflag.h"

// One l step of a pair: B row l of both panels at byte offset off, then
// acc_r += a_r[l+dl] * B for the four rows, Y0..Y3 against the first panel
// and Y4..Y7 against the second.
#define PAIR(off, dl) \
	VMOVUPS      off(R12), Y8        \
	VMOVUPS      off(R13), Y9        \
	VBROADCASTSS dl(R8)(DX*4), Y10   \
	VMULPS       Y8, Y10, Y11        \
	VMULPS       Y9, Y10, Y10        \
	VADDPS       Y11, Y0, Y0         \
	VADDPS       Y10, Y4, Y4         \
	VBROADCASTSS dl(R9)(DX*4), Y12   \
	VMULPS       Y8, Y12, Y13        \
	VMULPS       Y9, Y12, Y12        \
	VADDPS       Y13, Y1, Y1         \
	VADDPS       Y12, Y5, Y5         \
	VBROADCASTSS dl(R10)(DX*4), Y14  \
	VMULPS       Y8, Y14, Y15        \
	VMULPS       Y9, Y14, Y14        \
	VADDPS       Y15, Y2, Y2         \
	VADDPS       Y14, Y6, Y6         \
	VBROADCASTSS dl(R11)(DX*4), Y10  \
	VMULPS       Y8, Y10, Y11        \
	VMULPS       Y9, Y10, Y10        \
	VADDPS       Y11, Y3, Y3         \
	VADDPS       Y10, Y7, Y7

// One l step of the odd panel: PAIR's first half.
#define SINGLE(off, dl) \
	VMOVUPS      off(R12), Y8        \
	VBROADCASTSS dl(R8)(DX*4), Y10   \
	VMULPS       Y8, Y10, Y10        \
	VADDPS       Y10, Y0, Y0         \
	VBROADCASTSS dl(R9)(DX*4), Y11   \
	VMULPS       Y8, Y11, Y11        \
	VADDPS       Y11, Y1, Y1         \
	VBROADCASTSS dl(R10)(DX*4), Y12  \
	VMULPS       Y8, Y12, Y12        \
	VADDPS       Y12, Y2, Y2         \
	VBROADCASTSS dl(R11)(DX*4), Y13  \
	VMULPS       Y8, Y13, Y13        \
	VADDPS       Y13, Y3, Y3

// func gemmRows4AVX(a, panels, c *float32, kc, ldc, np int)
//
// a points at A[i0][0] (rows kc floats apart), panels at the first of np
// adjacent panels (kc·8 floats each), c at C[i0][j] (rows ldc floats apart).
// kc and np must be positive.
//
// Register plan:
//   R8..R11  A row pointers       Y0..Y3   tile rows, first panel's columns
//   R12,R13  panel cursors        Y4..Y7   tile rows, second panel's columns
//   DX       l                    Y8,Y9    B row l of the two panels
//   SI       kc   R15  kc &^ 1    Y10..Y15 broadcast A elements, products
//   DI       C tile               BX       ldc in bytes
//   CX       panels left          R14      bytes in one panel
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
	SHLQ $5, R14
	MOVQ SI, R15
	ANDQ $-2, R15
	JMP  next

pair:
	LEAQ   (R12)(R14*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   DX, DX
	CMPQ   DX, R15
	JGE    odd

loop2:
	PAIR(0, 0)
	PAIR(32, 4)
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $2, DX
	CMPQ DX, R15
	JLT  loop2

odd:
	CMPQ DX, SI
	JGE  writeback
	PAIR(0, 0)
	ADDQ $32, R13

writeback:
	MOVQ    DI, AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y4, 32(AX)
	ADDQ    BX, AX
	VMOVUPS Y1, (AX)
	VMOVUPS Y5, 32(AX)
	ADDQ    BX, AX
	VMOVUPS Y2, (AX)
	VMOVUPS Y6, 32(AX)
	ADDQ    BX, AX
	VMOVUPS Y3, (AX)
	VMOVUPS Y7, 32(AX)

	MOVQ R13, R12            // the second panel's end is the next pair's start
	ADDQ $64, DI
	SUBQ $2, CX

next:
	CMPQ  CX, $2
	JGE   pair
	TESTQ CX, CX
	JZ    done

	// The odd last panel, into a 4×8 tile.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   DX, R15
	JGE    odd1

loop1:
	SINGLE(0, 0)
	SINGLE(32, 4)
	ADDQ $64, R12
	ADDQ $2, DX
	CMPQ DX, R15
	JLT  loop1

odd1:
	CMPQ DX, SI
	JGE  writeback1
	SINGLE(0, 0)

writeback1:
	MOVQ    DI, AX
	VMOVUPS Y0, (AX)
	ADDQ    BX, AX
	VMOVUPS Y1, (AX)
	ADDQ    BX, AX
	VMOVUPS Y2, (AX)
	ADDQ    BX, AX
	VMOVUPS Y3, (AX)

done:
	VZEROUPPER
	RET

// One l step of one panel of the one-row kernel: B row l at P times the
// broadcast A element in Y15, added into accumulator ACC; YT is scratch.
#define ROW1(P, YT, ACC) \
	VMULPS P, Y15, YT  \
	VADDPS YT, ACC, ACC

// func gemmRow1AVX(a, panels, c *float32, kc, np int)
//
// One row of A against np adjacent packed panels, into the C row at c: the
// row kernel under four rows. Four panels are in flight at a time (a 1×32
// strip in Y0..Y3), then one panel at a time. An l whose A element is ±0 is
// skipped for every column, as the reference skips it; otherwise each lane's
// product and sum round on their own, in ascending l, and C = acc is stored
// once per strip. kc and np must be positive.
//
// Register plan:
//   SI  A row        DX  l             CX  kc          R15 kc &^ 1
//   DI  C strip      BX  panels left   R14 bytes in one panel
//   R12 strip's first panel
//   R8..R11  cursors of the strip's four panels
//   Y15 broadcast A element              Y8..Y11 products
TEXT ·gemmRow1AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ panels+8(FP), R12
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ np+32(FP), BX
	MOVQ CX, R14
	SHLQ $5, R14
	MOVQ CX, R15
	ANDQ $-2, R15
	JMP  next4

strip4:
	MOVQ   R12, R8
	LEAQ   (R8)(R14*1), R9
	LEAQ   (R9)(R14*1), R10
	LEAQ   (R10)(R14*1), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   DX, R15
	JGE    odd4

loop4:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip4a
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R8), Y8, Y0)
	ROW1((R9), Y9, Y1)
	ROW1((R10), Y10, Y2)
	ROW1((R11), Y11, Y3)

skip4a:
	MOVL         4(SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip4b
	VBROADCASTSS 4(SI)(DX*4), Y15
	ROW1(32(R8), Y8, Y0)
	ROW1(32(R9), Y9, Y1)
	ROW1(32(R10), Y10, Y2)
	ROW1(32(R11), Y11, Y3)

skip4b:
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $2, DX
	CMPQ DX, R15
	JLT  loop4

odd4:
	CMPQ         DX, CX
	JGE          done4
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip4c
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R8), Y8, Y0)
	ROW1((R9), Y9, Y1)
	ROW1((R10), Y10, Y2)
	ROW1((R11), Y11, Y3)

skip4c:
	ADDQ $32, R11

done4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	MOVQ    R11, R12 // the strip's last panel ends where the next strip starts
	SUBQ    $4, BX

next4:
	CMPQ  BX, $4
	JGE   strip4
	TESTQ BX, BX
	JZ    row1done

strip1:
	VXORPS Y0, Y0, Y0
	XORQ   DX, DX

loop1:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7fffffff, AX
	JZ           skip1
	VBROADCASTSS (SI)(DX*4), Y15
	ROW1((R12), Y8, Y0)

skip1:
	ADDQ $32, R12
	INCQ DX
	CMPQ DX, CX
	JLT  loop1

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    BX
	JNZ     strip1

row1done:
	VZEROUPPER
	RET
