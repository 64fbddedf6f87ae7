// AVX window kernels: each output is a reduction over the taps of its
// window, rows of outputs at a time, a register per block of outputs and one
// store per output.
//
// poolMaxAVX is the exact reduction that reduction sampling trims, over the
// block of a plane's windows whose every tap lies inside the input. It
// transcribes the scalar fold in maxRows (rowops.go),
//
//	best := -Inf; for each kept tap v, in (ky, kx) order { if v > best { best = v } }
//
// as VMAXPS with the tap value as first source and best as second: the
// instruction returns its first source only when that compares greater,
// else its second, so a NaN tap never replaces best and of +0 and -0 the one
// held first stays, exactly as the scalar comparison leaves them. Nothing
// rounds, so there is no arithmetic to reorder.
//
// depthwiseRowsAVX is the small-group convolution over padded planes. It
// transcribes the loop in depthwiseRows (rowops.go),
//
//	acc := +0; for each tap t, in ascending l { acc += t.w * v }
//
// as VXORPS, then per tap VBROADCASTSS, VMULPS with the weight as first
// source and VADDPS with acc as first source. Product and sum round
// separately, and there is no fused multiply-add for `make no-fma` to find.
// Which payload survives where two NaNs meet is not pinned: the compiler
// picks the operand order of the scalar loop.
//
// AVX1 only (the avx tier does not probe AVX2): VPERM2F128, never VPERMPD.
// VEX-encoded throughout, VZEROUPPER before RET.

#include "textflag.h"
#include "go_asm.h"

DATA poolNegInf<>+0(SB)/4, $0xff800000
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $4

// NEXT moves BX on by the w outputs just stored and jumps back to loop for
// the next whole block; when fewer than w outputs remain, to loop once more
// with the last block, the one whose first output is R12 and which ends at
// n, overlapping the block before; when none remain, to rowdone.
#define NEXT(w, loop) \
	ADDQ $w, BX   \
	CMPQ BX, R12  \
	JLE  loop     \
	CMPQ BX, CX   \
	JGE  rowdone  \
	MOVQ R12, BX  \
	JMP  loop

// func poolMaxAVX(dst, src *float32, taps *poolTap, ntaps, n, rows, dstRow, srcRow int)
//
// dst[r·dstRow + j] = the fold over the ntaps taps t of src[r·srcRow +
// 2·j + t.off] for r < rows and j < n: stride 2, the only stride of the zoo's
// max pools. ntaps and rows must be positive; a row of fewer than four
// outputs, too short for one block, returns with nothing written. Only the off
// field of a poolTap is read (go_asm.h: poolTap_off, poolTap__size). A row
// goes eight outputs at a time (four when n < 8), each tap folded into one
// register and each output stored once; a ragged end takes a last block that
// overlaps the one before it. Eight outputs load their elements as e0..e7
// and e7..e14, never e15, which the last window does not cover, and VSHUFPS
// keeps the even ones in the order 0 1 4 5 | 2 3 6 7, put right once per
// block; four outputs load e0..e3 and e3..e6, and the same shuffle leaves
// them in order. Nothing is read outside the windows' extent in src, nothing
// written in dst but the outputs.
//
//   DI  dst row      R8  taps       CX  n        AX   window origin of output BX
//   SI  src row      R9  taps end   R10  tap     R11  its off
//   BX  first output of the block                R12  first output of the last block
//   R13 rows left    Y15 -Inf       Y0 best      Y1, Y2  tap values
TEXT ·poolMaxAVX(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         taps+16(FP), R8
	MOVQ         ntaps+24(FP), R9
	IMULQ        $poolTap__size, R9
	ADDQ         R8, R9
	MOVQ         n+32(FP), CX
	MOVQ         rows+40(FP), R13
	VBROADCASTSS poolNegInf<>(SB), Y15

row:
	XORQ BX, BX
	CMPQ CX, $8
	JLT  narrow
	LEAQ -8(CX), R12

y2:
	LEAQ    (SI)(BX*8), AX     // 2·BX floats
	VMOVAPS Y15, Y0
	MOVQ    R8, R10

y2tap:
	MOVQ    poolTap_off(R10), R11
	VMOVUPS (AX)(R11*4), Y1
	VMOVUPS 28(AX)(R11*4), Y2
	VSHUFPS $0xd8, Y2, Y1, Y1  // e0 e2 e8 e10 | e4 e6 e12 e14
	VMAXPS  Y0, Y1, Y0
	ADDQ    $poolTap__size, R10
	CMPQ    R10, R9
	JLT     y2tap
	VPERM2F128  $0x11, Y0, Y0, Y1 // outputs 2 3 6 7 | 2 3 6 7
	VINSERTF128 $1, X0, Y0, Y0    // outputs 0 1 4 5 | 0 1 4 5
	VSHUFPD     $0x0c, Y1, Y0, Y0 // outputs 0 1 2 3 | 4 5 6 7
	VMOVUPS     Y0, (DI)(BX*4)
	NEXT(8, y2)

narrow:
	CMPQ CX, $4
	JLT  done
	LEAQ -4(CX), R12

x2:
	LEAQ    (SI)(BX*8), AX
	VMOVAPS X15, X0
	MOVQ    R8, R10

x2tap:
	MOVQ    poolTap_off(R10), R11
	VMOVUPS (AX)(R11*4), X1
	VMOVUPS 12(AX)(R11*4), X2
	VSHUFPS $0xd8, X2, X1, X1  // e0 e2 e4 e6
	VMAXPS  X0, X1, X0
	ADDQ    $poolTap__size, R10
	CMPQ    R10, R9
	JLT     x2tap
	VMOVUPS X0, (DI)(BX*4)
	NEXT(4, x2)

rowdone:
	MOVQ dstRow+48(FP), R10
	LEAQ (DI)(R10*4), DI
	MOVQ srcRow+56(FP), R10
	LEAQ (SI)(R10*4), SI
	DECQ R13
	JNZ  row

done:
	VZEROUPPER
	RET

// func depthwiseRowsAVX(dst, src *float32, taps *convTap, ntaps, n, stride, rows, dstRow, srcRow int)
//
// dst[r·dstRow + j] = the sum from +0 over the ntaps taps t of t.w ·
// src[r·srcRow + stride·j + t.off] for r < rows and j < n, at stride 1 or
// 2. ntaps and rows must be positive; a row of fewer than four outputs, too
// short for one block, returns with nothing written. A row goes eight outputs at a time (four when n < 8), the taps
// summed into one register and each output stored once; a ragged end takes
// a last block that overlaps the one before it. At stride 2 a block loads
// its elements as the pool kernel does — e0..e7 and e7..e14, or e0..e3 and
// e3..e6 — and VSHUFPS keeps the even ones; the eight-output order
// 0 1 4 5 | 2 3 6 7 is put right once per block. Nothing is read outside the
// windows' extent in src, nothing written in dst but the outputs.
//
//   DI  dst row      R8  taps       CX  n        AX   window origin of output BX
//   SI  src row      R9  taps end   DX  stride   R10  tap     R11  its off
//   BX  first output of the block                R12  first output of the last block
//   R13 rows left    Y0 sum         Y1, Y2  tap values        Y3  tap weight
TEXT ·depthwiseRowsAVX(SB), NOSPLIT, $0-72
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  taps+16(FP), R8
	MOVQ  ntaps+24(FP), R9
	IMULQ $convTap__size, R9
	ADDQ  R8, R9
	MOVQ  n+32(FP), CX
	MOVQ  stride+40(FP), DX
	MOVQ  rows+48(FP), R13
	CMPQ  CX, $4
	JLT   done

row:
	XORQ BX, BX
	CMPQ DX, $2
	JEQ  row2
	CMPQ CX, $8
	JLT  narrow1
	LEAQ -8(CX), R12

y1:
	LEAQ   (SI)(BX*4), AX
	VXORPS Y0, Y0, Y0
	MOVQ   R8, R10

y1tap:
	MOVLQSX      convTap_off(R10), R11
	VBROADCASTSS convTap_w(R10), Y3
	VMULPS       (AX)(R11*4), Y3, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $convTap__size, R10
	CMPQ         R10, R9
	JLT          y1tap
	VMOVUPS      Y0, (DI)(BX*4)
	NEXT(8, y1)

narrow1:
	LEAQ -4(CX), R12

x1:
	LEAQ   (SI)(BX*4), AX
	VXORPS X0, X0, X0
	MOVQ   R8, R10

x1tap:
	MOVLQSX      convTap_off(R10), R11
	VBROADCASTSS convTap_w(R10), X3
	VMULPS       (AX)(R11*4), X3, X1
	VADDPS       X1, X0, X0
	ADDQ         $convTap__size, R10
	CMPQ         R10, R9
	JLT          x1tap
	VMOVUPS      X0, (DI)(BX*4)
	NEXT(4, x1)

row2:
	CMPQ CX, $8
	JLT  narrow2
	LEAQ -8(CX), R12

y2:
	LEAQ   (SI)(BX*8), AX      // 2·BX floats
	VXORPS Y0, Y0, Y0
	MOVQ   R8, R10

y2tap:
	MOVLQSX      convTap_off(R10), R11
	VMOVUPS      (AX)(R11*4), Y1
	VMOVUPS      28(AX)(R11*4), Y2
	VSHUFPS      $0xd8, Y2, Y1, Y1 // e0 e2 e8 e10 | e4 e6 e12 e14
	VBROADCASTSS convTap_w(R10), Y3
	VMULPS       Y1, Y3, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $convTap__size, R10
	CMPQ         R10, R9
	JLT          y2tap
	VPERM2F128   $0x11, Y0, Y0, Y1 // outputs 2 3 6 7 | 2 3 6 7
	VINSERTF128  $1, X0, Y0, Y0    // outputs 0 1 4 5 | 0 1 4 5
	VSHUFPD      $0x0c, Y1, Y0, Y0 // outputs 0 1 2 3 | 4 5 6 7
	VMOVUPS      Y0, (DI)(BX*4)
	NEXT(8, y2)

narrow2:
	LEAQ -4(CX), R12

x2:
	LEAQ   (SI)(BX*8), AX
	VXORPS X0, X0, X0
	MOVQ   R8, R10

x2tap:
	MOVLQSX      convTap_off(R10), R11
	VMOVUPS      (AX)(R11*4), X1
	VMOVUPS      12(AX)(R11*4), X2
	VSHUFPS      $0xd8, X2, X1, X1 // e0 e2 e4 e6
	VBROADCASTSS convTap_w(R10), X3
	VMULPS       X1, X3, X1
	VADDPS       X1, X0, X0
	ADDQ         $convTap__size, R10
	CMPQ         R10, R9
	JLT          x2tap
	VMOVUPS      X0, (DI)(BX*4)
	NEXT(4, x2)

rowdone:
	MOVQ dstRow+56(FP), R10
	LEAQ (DI)(R10*4), DI
	MOVQ srcRow+64(FP), R10
	LEAQ (SI)(R10*4), SI
	DECQ R13
	JNZ  row

done:
	VZEROUPPER
	RET
