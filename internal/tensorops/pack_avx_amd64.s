// AVX pack routines: the copies behind convPlan.packPanels, for panels whose
// columns are adjacent in the input planes (packRunAVX) and for panels whose
// two four-column halves each lie in two windows of four floats
// (packQuadAVX). Either writes one eight-lane panel row per 32-byte store.
// They only move data — no arithmetic, so nothing here can round differently
// from the Go loops in packRun and packQuad they are pinned to
// (pack_test.go), and no fused multiply-add for `make no-fma` to find. They
// check no bound: the Go callers slice to the extent touched before calling.
// VEX-encoded throughout, VZEROUPPER before RET.

#include "textflag.h"

// func packRunAVX(dst, src *float32, offs *int32, kc, run int)
//
// dst[(p*kc+l)*8 : +8] = src[offs[l]+8p : +8] for p < run, l < kc; kc and
// run must be positive. One 32-byte load at src[offs[l]+8p] is row l of
// panel p, stored whole; dst is written as one forward stream, two rows a
// step and an odd last row on its own.
//
// Register plan:
//   DI  dst row l of panel p    SI  src + 8p floats    R8  offs
//   CX  kc      R9  kc &^ 1     DX  panels left        AX  l
//   BX, R10  offs[l], offs[l+1]
TEXT ·packRunAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ kc+24(FP), CX
	MOVQ run+32(FP), DX
	MOVQ CX, R9
	ANDQ $-2, R9

panel:
	XORQ AX, AX
	CMPQ AX, R9
	JGE  oddrow

rows:
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 4(R8)(AX*4), R10
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS (SI)(R10*4), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $2, AX
	CMPQ    AX, R9
	JLT     rows

oddrow:
	CMPQ    AX, CX
	JGE     nextpanel
	MOVLQSX (R8)(AX*4), BX
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI

nextpanel:
	ADDQ $32, SI
	DECQ DX
	JNZ  panel

	VZEROUPPER
	RET

// func packQuadAVX(dst, src *float32, offs *int32, kc int, win *[4]int32, ctrl *[8]int32)
//
// dst[l*8+q] = src[offs[l] + w + ctrl[q]&3] for l < kc, q < 8, where w is
// win[0] for a lane q < 4 whose ctrl sign bit is clear, win[1] for one whose
// sign bit is set, and win[2], win[3] likewise for q ≥ 4; kc must be
// positive. ctrl is both the VPERMILPS control, which reads two bits a lane
// within each 128-bit half, and the VBLENDVPS mask, which reads the sign.
// Per l: the first windows of both halves in one YMM register, the second
// windows in another, one permute each, one blend, one 32-byte store.
//
// Register plan:
//   DI  dst        SI  src      R8  offs     CX  kc     AX  l     BX  offs[l]
//   R9, R10   the low half's two windows     R11, R12  the high half's
//   Y15 ctrl
TEXT ·packQuadAVX(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    offs+16(FP), R8
	MOVQ    kc+24(FP), CX
	MOVQ    win+32(FP), AX
	MOVQ    ctrl+40(FP), DX
	VMOVUPS (DX), Y15
	MOVLQSX (AX), R9
	LEAQ    (SI)(R9*4), R9
	MOVLQSX 4(AX), R10
	LEAQ    (SI)(R10*4), R10
	MOVLQSX 8(AX), R11
	LEAQ    (SI)(R11*4), R11
	MOVLQSX 12(AX), R12
	LEAQ    (SI)(R12*4), R12
	XORQ    AX, AX

quadrow:
	MOVLQSX     (R8)(AX*4), BX
	VMOVUPS     (R9)(BX*4), X0
	VINSERTF128 $1, (R11)(BX*4), Y0, Y0
	VMOVUPS     (R10)(BX*4), X1
	VINSERTF128 $1, (R12)(BX*4), Y1, Y1
	VPERMILPS   Y15, Y0, Y0
	VPERMILPS   Y15, Y1, Y1
	VBLENDVPS   Y15, Y1, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, DI
	INCQ        AX
	CMPQ        AX, CX
	JLT         quadrow

	VZEROUPPER
	RET
