// F16C FP16 round trip, eight floats at a time: VCVTPS2PH with an immediate
// round-to-nearest-even (MXCSR is not consulted) narrows, VCVTPH2PS widens.
// The hardware keeps the top bits of a NaN payload; the scalar converter
// returns the canonical quiet NaN sign|0x7fc00000, so NaN lanes are blended
// to that. Every other lane is IEEE-defined and equals the scalar path bit
// for bit (fp16_test.go sweeps all 2^32 patterns).

#include "textflag.h"

DATA fp16consts<>+0(SB)/4, $0x80000000
DATA fp16consts<>+4(SB)/4, $0x7fc00000
GLOBL fp16consts<>(SB), RODATA|NOPTR, $8

// func quantizeFP16x8(dst, src *float32, groups int)
TEXT ·quantizeFP16x8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), CX
	VBROADCASTSS fp16consts<>+0(SB), Y4 // sign mask
	VBROADCASTSS fp16consts<>+4(SB), Y5 // quiet NaN

loop:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y1
	VCMPPS    $3, Y0, Y0, Y2   // unordered with itself: all-ones in NaN lanes
	VANDPS    Y4, Y0, Y3
	VORPS     Y5, Y3, Y3       // sign|0x7fc00000
	VBLENDVPS Y2, Y3, Y1, Y1
	VMOVUPS   Y1, (DI)         // after the load: dst == src is fine
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER
	RET
