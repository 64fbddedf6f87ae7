// AVX max-pool kernel: the exact reduction that reduction sampling trims,
// over the block of a plane's windows whose every tap lies inside the input.
// It transcribes the scalar fold in maxRows (rowops.go),
//
//	best := -Inf; for each kept tap v, in (ky, kx) order { if v > best { best = v } }
//
// as VMAXPS with the tap value as first source and best as second: the
// instruction returns its first source only when that compares greater,
// else its second, so a NaN tap never replaces best and of +0 and -0 the one
// held first stays, exactly as the scalar comparison leaves them. Nothing
// rounds, so there is no arithmetic to reorder and no fused multiply-add for
// `make no-fma` to find. AVX1 only (the avx tier does not probe AVX2):
// VPERM2F128, never VPERMPD. VEX-encoded throughout, VZEROUPPER before RET.

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
