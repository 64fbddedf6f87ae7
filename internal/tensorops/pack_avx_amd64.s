// AVX pack routines: the copies behind convPlan.packPanels, for panels whose
// columns are adjacent in the input planes (packRunAVX) and for panels whose
// columns lie in two windows of four floats (packQuadAVX). They only move
// data — no arithmetic, so nothing here can round differently from the Go
// loops in packRun and packQuad they are pinned to (pack_test.go), and no
// fused multiply-add for `make no-fma` to find. They check no bound: the Go
// callers slice to the extent touched before calling. VEX-encoded
// throughout, VZEROUPPER before RET.

#include "textflag.h"

// func packRunAVX(dst, src *float32, offs *int32, kc, run int)
//
// dst[(p*kc+l)*4 : +4] = src[offs[l]+4p : +4] for p < run, l < kc; kc and
// run must be positive. Panels go two at a time: one 32-byte load at
// src[offs[l]+8q] is row l of panels 2q (low half) and 2q+1 (high half),
// stored to two sequential streams. An odd last panel takes 16-byte moves.
//
// Register plan:
//   DI  first panel of the pair    SI  src + 4p floats    R8  offs
//   R10 second panel               CX  2·kc               DX  panels left
//   AX  2·l, so that offs[l] is (R8)(AX*2), row l of a panel (DI)(AX*8) and
//       the next panel (DI)(CX*8)  BX  offs[l]
TEXT ·packRunAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ kc+24(FP), CX
	MOVQ run+32(FP), DX
	ADDQ CX, CX
	CMPQ DX, $2
	JLT  single

pair:
	LEAQ (DI)(CX*8), R10
	XORQ AX, AX

pair1:
	MOVLQSX      (R8)(AX*2), BX
	VMOVUPS      (SI)(BX*4), Y0
	VMOVUPS      X0, (DI)(AX*8)
	VEXTRACTF128 $1, Y0, (R10)(AX*8)
	ADDQ         $2, AX
	CMPQ         AX, CX
	JLT          pair1
	LEAQ         (R10)(CX*8), DI
	ADDQ         $32, SI
	SUBQ         $2, DX
	CMPQ         DX, $2
	JGE          pair

single:
	TESTQ DX, DX
	JZ    done
	XORQ  AX, AX

single1:
	MOVLQSX (R8)(AX*2), BX
	VMOVUPS (SI)(BX*4), X0
	VMOVUPS X0, (DI)(AX*8)
	ADDQ    $2, AX
	CMPQ    AX, CX
	JLT     single1

done:
	VZEROUPPER
	RET

// func packQuadAVX(dst, lo, hi *float32, offs *int32, kc int, ctrl *[4]int32)
//
// dst[l*4+q] = w[offs[l] + ctrl[q]&3] for l < kc, q < 4, where w is lo, or
// hi when ctrl[q]'s sign bit is set; kc must be positive. ctrl is both the
// VPERMILPS control, which reads two bits a lane, and the VBLENDVPS mask,
// which reads the sign. Two l at a time: rows l and l+1 of each window in
// the halves of one YMM register, one permute each, one blend, one 32-byte
// store; an odd last l on XMM.
//
// Register plan:
//   DI  dst        SI  lo       DX  hi       R8  offs
//   CX  kc         R9  kc &^ 1  AX  l        BX, R10  offs[l], offs[l+1]
//   Y15 ctrl in both halves
TEXT ·packQuadAVX(SB), NOSPLIT, $0-48
	MOVQ        dst+0(FP), DI
	MOVQ        lo+8(FP), SI
	MOVQ        hi+16(FP), DX
	MOVQ        offs+24(FP), R8
	MOVQ        kc+32(FP), CX
	MOVQ        ctrl+40(FP), AX
	VMOVUPS     (AX), X15
	VINSERTF128 $1, X15, Y15, Y15
	MOVQ        CX, R9
	ANDQ        $-2, R9
	XORQ        AX, AX
	CMPQ        AX, R9
	JGE         quadodd

quadpair:
	MOVLQSX     (R8)(AX*4), BX
	MOVLQSX     4(R8)(AX*4), R10
	VMOVUPS     (SI)(BX*4), X0
	VINSERTF128 $1, (SI)(R10*4), Y0, Y0
	VMOVUPS     (DX)(BX*4), X1
	VINSERTF128 $1, (DX)(R10*4), Y1, Y1
	VPERMILPS   Y15, Y0, Y0
	VPERMILPS   Y15, Y1, Y1
	VBLENDVPS   Y15, Y1, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, DI
	ADDQ        $2, AX
	CMPQ        AX, R9
	JLT         quadpair

quadodd:
	CMPQ      AX, CX
	JGE       quaddone
	MOVLQSX   (R8)(AX*4), BX
	VMOVUPS   (SI)(BX*4), X0
	VMOVUPS   (DX)(BX*4), X1
	VPERMILPS X15, X0, X0
	VPERMILPS X15, X1, X1
	VBLENDVPS X15, X1, X0, X0
	VMOVUPS   X0, (DI)

quaddone:
	VZEROUPPER
	RET
