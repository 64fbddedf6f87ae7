// AVX pack routine: the copy behind convPlan.packPanels for panels whose
// columns are adjacent in the input planes. It only moves data — no
// arithmetic, so nothing here can round differently from the Go loop in
// packRun it is pinned to (pack_test.go), and no fused multiply-add for
// `make no-fma` to find. It checks no bound: packRun slices dst and src to
// the exact extent touched before calling. VEX-encoded throughout,
// VZEROUPPER before RET.

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
