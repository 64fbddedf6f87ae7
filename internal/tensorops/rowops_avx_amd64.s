// AVX row kernels: what a layer does to a C row besides the GEMM — tanh32
// four float64 lanes at a time, the fused bias/activation/FP16 epilogue
// eight float32 lanes at a time, and the average that fills a perforated
// row.
//
// Each is a lane-for-lane transcription of scalar Go that stays in the tree
// (tanh32 in mathfast.go, rowEpi.passes in epilogue.go, interpRows in
// rowops.go): the same operations on the same operands in the same order, every one
// rounding on its own — separate VMULPx and VADDPx, never a fused
// multiply-add (`make ci` greps for it), a real VDIVPD where the scalar code
// divides. Where the scalar code branches the lanes compute both sides and
// blend. tanh_vector_test.go sweeps all 2^32 inputs of the first kernel
// against tanh32; rowops_test.go holds the other two to the scalar chain.
// VEX-encoded throughout, VZEROUPPER before RET.

#include "textflag.h"
#include "go_asm.h"

#define QUAD(sym, off, v) \
	DATA sym<>+off+0(SB)/8, v  \
	DATA sym<>+off+8(SB)/8, v  \
	DATA sym<>+off+16(SB)/8, v \
	DATA sym<>+off+24(SB)/8, v

// tanh32's float64 constants, four lanes each: the bit patterns Go gives
// the constant expressions in mathfast.go (1/6.0 is rounded once, from the
// exact quotient). Both files must change together.
QUAD(tanhK, 0, $0x3ff71547652b82fe)   // invLn2
QUAD(tanhK, 32, $0x3fe0000000000000)  // 0.5, also 1/2.0
QUAD(tanhK, 64, $0x3fe62e42fee00000)  // ln2Hi
QUAD(tanhK, 96, $0x3dea39ef35793c76)  // ln2Lo
QUAD(tanhK, 128, $0x40b3b00000000000) // 5040.0
QUAD(tanhK, 160, $0x3f56c16c16c16c17) // 1/720.0
QUAD(tanhK, 192, $0x3f81111111111111) // 1/120.0
QUAD(tanhK, 224, $0x3fa5555555555555) // 1/24.0
QUAD(tanhK, 256, $0x3fc5555555555555) // 1/6.0
QUAD(tanhK, 288, $0x3ff0000000000000) // 1.0
QUAD(tanhK, 320, $0x4000000000000000) // 2.0
QUAD(tanhK, 352, $0x403207ae147ae148) // 18.03
QUAD(tanhK, 384, $0x7fffffffffffffff) // float64 magnitude mask
QUAD(tanhK, 416, $0x000003ff000003ff) // float64 exponent bias, as int32 lanes
GLOBL tanhK<>(SB), RODATA|NOPTR, $448

#define K_INVLN2 tanhK<>+0(SB)
#define K_HALF   tanhK<>+32(SB)
#define K_LN2HI  tanhK<>+64(SB)
#define K_LN2LO  tanhK<>+96(SB)
#define K_5040   tanhK<>+128(SB)
#define K_720TH  tanhK<>+160(SB)
#define K_120TH  tanhK<>+192(SB)
#define K_24TH   tanhK<>+224(SB)
#define K_6TH    tanhK<>+256(SB)
#define K_ONE    tanhK<>+288(SB)
#define K_TWO    tanhK<>+320(SB)
#define K_SAT    tanhK<>+352(SB)
#define K_ABS    tanhK<>+384(SB)
#define K_BIAS   tanhK<>+416(SB)

// The FP16 round trip's constants (fp16_amd64.s in internal/tensor has the
// same two): the float32 sign bit and the canonical quiet NaN.
QUAD(halfK, 0, $0x8000000080000000)
QUAD(halfK, 32, $0x7fc000007fc00000)
GLOBL halfK<>(SB), RODATA|NOPTR, $64

// TANH4 is tanh32 on the four float32 in xin, result in xout. It uses
// Y2..Y9; xin and xout must lie outside them. The comments quote tanh32.
//
//   Y3 |y|   Y2 y's sign bit   X4 k   Y5 kf, Horner accumulator, t
//   Y6 r, then the saturation mask   Y8 2^k
#define TANH4(xin, xout) \
	VCVTPS2PD   xin, Y2              \
	VADDPD      Y2, Y2, Y2           \ // y := 2 * float64(x), exact either way
	VANDPD      K_ABS, Y2, Y3        \ // if y < 0 { y = -y; neg = true }
	VXORPD      Y3, Y2, Y2           \
	VMULPD      K_INVLN2, Y3, Y4     \
	VADDPD      K_HALF, Y4, Y4       \
	VCVTTPD2DQY Y4, X4               \ // k := int64(y*invLn2 + 0.5), truncating
	VCVTDQ2PD   X4, Y5               \ // kf := float64(k)
	VMULPD      K_LN2HI, Y5, Y6      \
	VSUBPD      Y6, Y3, Y6           \ // y - kf*ln2Hi
	VMULPD      K_LN2LO, Y5, Y5      \
	VSUBPD      Y5, Y6, Y6           \ // r := … - kf*ln2Lo
	VDIVPD      K_5040, Y6, Y5       \ // r/5040.0, then Horner outward
	VADDPD      K_720TH, Y5, Y5      \
	VMULPD      Y6, Y5, Y5           \
	VADDPD      K_120TH, Y5, Y5      \
	VMULPD      Y6, Y5, Y5           \
	VADDPD      K_24TH, Y5, Y5       \
	VMULPD      Y6, Y5, Y5           \
	VADDPD      K_6TH, Y5, Y5        \
	VMULPD      Y6, Y5, Y5           \
	VADDPD      K_HALF, Y5, Y5       \
	VMULPD      Y6, Y5, Y5           \
	VADDPD      K_ONE, Y5, Y5        \
	VMULPD      Y6, Y5, Y5           \ // p
	VPADDD      K_BIAS, X4, X4       \ // pow2k := Float64frombits((1023+k) << 52):
	VPSLLD      $20, X4, X4          \ // the high dword of each double,
	VPXOR       X7, X7, X7           \ // interleaved with zero low dwords
	VPUNPCKLDQ  X4, X7, X8           \
	VPUNPCKHDQ  X4, X7, X9           \
	VINSERTF128 $1, X9, Y8, Y8       \
	VMULPD      Y8, Y5, Y5           \ // pow2k*p; k == 0 lanes get 1*p + 0 = p,
	VSUBPD      K_ONE, Y8, Y8        \ // (pow2k - 1)     which is p: p ≥ +0 there
	VADDPD      Y8, Y5, Y5           \ // em1
	VADDPD      K_TWO, Y5, Y6        \
	VDIVPD      Y6, Y5, Y5           \ // t := em1 / (em1 + 2)
	VCMPPD      $5, K_SAT, Y3, Y6    \ // !(y < 18.03): saturated, +Inf or NaN
	VBLENDVPD   Y6, K_ONE, Y5, Y5    \ // return ±1
	VXORPD      Y2, Y5, Y5           \ // if neg { t = -t }
	VCVTPD2PSY  Y5, xout             \
	VCMPPS      $3, xin, xin, X6     \ // NaN: return x, bits untouched
	VBLENDVPS   X6, xin, xout, xout

// func tanh4AVX(dst, src *float32, groups int)
//
// dst[i] = tanh32(src[i]) for 4·groups elements; groups must be positive.
// dst == src is fine (each group is loaded before it is stored).
TEXT ·tanh4AVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), CX

tanhloop:
	VMOVUPS (SI), X0
	TANH4(X0, X1)
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	DECQ    CX
	JNZ     tanhloop
	VZEROUPPER
	RET

// QUANT rounds Y0 through half precision in place, as quantizeFP16x8 does:
// VCVTPS2PH with an immediate round-to-nearest-even, VCVTPH2PS back, NaN
// lanes blended to sign|0x7fc00000. Uses Y2..Y4.
#define QUANT \
	VCVTPS2PH $0, Y0, X2          \
	VCVTPH2PS X2, Y2              \
	VCMPPS    $3, Y0, Y0, Y3      \
	VANDPS    halfK<>+0(SB), Y0, Y4  \
	VORPS     halfK<>+32(SB), Y4, Y4 \
	VBLENDVPS Y3, Y4, Y2, Y0

// func epilogueRowAVX(p *float32, n int, bias *float32, flags int, clip float32)
//
// The fused epilogue over p[0:n], n ≥ 8, in place, one load and one store
// per element: quantize (epiQuantIn), add bias (epiBiasRow: *bias to every
// element; epiBiasCol: bias[j] to p[j]) and quantize, activate (epiReLU,
// epiClip, epiTanh) and quantize — the quantizations after a step only
// under epiQuant. The flags are Go constants (go_asm.h).
//
// n need not be a multiple of eight: the last eight elements are loaded
// before the loop starts, so the loop's stores cannot reach them, and go
// through the same body as the final iteration. Nothing outside p[0:n] and
// bias[0:n] is touched.
//
//   DI  cursor           Y0   the eight elements
//   SI  bias cursor      Y1   their bias
//   CX  vectors left     Y13  clip, broadcast
//   R8  flags            Y14, Y15  bias and elements of the last vector
//   R9  &p[n-8]          Y2..Y12   scratch (QUANT, TANH4 and its halves)
TEXT ·epilogueRowAVX(SB), NOSPLIT, $0-36
	MOVQ         p+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         bias+16(FP), SI
	MOVQ         flags+24(FP), R8
	VBROADCASTSS clip+32(FP), Y13
	LEAQ         -32(DI)(CX*4), R9
	VMOVUPS      (R9), Y15
	TESTQ        $const_epiBiasRow, R8
	JZ           norow
	VBROADCASTSS (SI), Y1

norow:
	TESTQ   $const_epiBiasCol, R8
	JZ      nocol
	VMOVUPS -32(SI)(CX*4), Y14

nocol:
	DECQ CX
	SHRQ $3, CX              // (n-1)/8 vectors, then the last one

next:
	SUBQ    $1, CX
	JLT     last
	VMOVUPS (DI), Y0
	TESTQ   $const_epiBiasCol, R8
	JZ      body
	VMOVUPS (SI), Y1
	ADDQ    $32, SI
	JMP     body

last:
	CMPQ    CX, $-1
	JNE     done
	VMOVAPS Y15, Y0
	MOVQ    R9, DI
	TESTQ   $const_epiBiasCol, R8
	JZ      body
	VMOVAPS Y14, Y1

body:
	TESTQ $const_epiQuantIn, R8
	JZ    addbias
	QUANT

addbias:
	TESTQ  $(const_epiBiasRow|const_epiBiasCol), R8
	JZ     activate
	VADDPS Y1, Y0, Y0
	TESTQ  $const_epiQuant, R8
	JZ     activate
	QUANT

activate:
	TESTQ $const_epiReLU, R8
	JNZ   relu
	TESTQ $const_epiClip, R8
	JNZ   clip
	TESTQ $const_epiTanh, R8
	JZ    store

	VEXTRACTF128 $1, Y0, X10
	TANH4(X0, X11)
	TANH4(X10, X12)
	VINSERTF128  $1, X12, Y11, Y0
	JMP          requant

relu:
	// if v < 0 { v = 0 }: MAXPS returns its second source when the first is
	// not greater, so a NaN and −0 pass through as the scalar test leaves them.
	VXORPS Y2, Y2, Y2
	VMAXPS Y0, Y2, Y0
	JMP    requant

clip:
	// if v < 0 { v = 0 } else if v > clip { v = clip }: the minimum again
	// returns v unless clip < v, and the v < 0 lanes are zeroed after it, so
	// a negative or NaN clip behaves as the scalar chain does.
	VXORPS  Y2, Y2, Y2
	VCMPPS  $1, Y2, Y0, Y3
	VMINPS  Y0, Y13, Y0
	VANDNPS Y0, Y3, Y0

requant:
	TESTQ $const_epiQuant, R8
	JZ    store
	QUANT

store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	JMP     next

done:
	VZEROUPPER
	RET

DATA interpHalf<>+0(SB)/4, $0x3f000000 // 0.5
GLOBL interpHalf<>(SB), RODATA|NOPTR, $4

// func interpRowsAVX(dst, a, b *float32, n int)
//
// dst[j] = 0.5*(a[j]+b[j]) for j < n, n ≥ 8: the sum rounds (VADDPS, a
// first), then the product (VMULPS), as the scalar statement does. dst must
// overlap neither source, so the last eight, computed first and stored
// last, may overlap the block before them.
TEXT ·interpRowsAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS interpHalf<>(SB), Y2
	LEAQ         -32(DI)(CX*4), R8
	VMOVUPS      -32(SI)(CX*4), Y15
	VADDPS       -32(DX)(CX*4), Y15, Y15
	VMULPS       Y2, Y15, Y15
	DECQ         CX
	SHRQ         $3, CX
	JZ           interplast

interploop:
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMULPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     interploop

interplast:
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

// func expandColsAVX(row, kept *float32, steps *colStep, n int)
//
// The n ≥ 1 full steps of expandCols, last first: for step g, the window
// kept[w:w+4] permuted by a (the value, or the left neighbour) and by b
// (the right neighbour), A + B (VADDPS, A first) times 0.5 (VMULPS), and
// that blended in where avg is set — so a kept value is copied, never
// recomputed — stored to row[4g:4g+4]. The window is loaded before the
// store, which may overlap it.
TEXT ·expandColsAVX(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), DI
	MOVQ         kept+8(FP), SI
	MOVQ         steps+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSS interpHalf<>(SB), X5

expandloop:
	DECQ      CX
	MOVQ      CX, DX
	IMULQ     $colStep__size, DX
	MOVLQSX   colStep_w(BX)(DX*1), AX
	VMOVUPS   (SI)(AX*4), X0
	VPERMILPS colStep_a(BX)(DX*1), X0, X1
	VPERMILPS colStep_b(BX)(DX*1), X0, X2
	VADDPS    X2, X1, X3
	VMULPS    X5, X3, X3
	VMOVUPS   colStep_avg(BX)(DX*1), X4
	VBLENDVPS X4, X3, X1, X1
	MOVQ      CX, AX
	SHLQ      $4, AX
	VMOVUPS   X1, (DI)(AX*1)
	TESTQ     CX, CX
	JNZ       expandloop
	VZEROUPPER
	RET
