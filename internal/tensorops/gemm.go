// Package tensorops implements the predefined tensor operations of the
// ApproxHPVM-style IR — convolution, matrix multiplication, activations,
// pooling, normalization, softmax and reductions — in exact form and in
// every approximate variant the paper tunes: filter sampling (9 knobs),
// perforated convolution (18 knobs), reduction sampling (3 knobs), and
// IEEE FP16 variants of all of them.
//
// What the approximations cost here. In the paper they save time by not
// doing work (§3.4), and for the two convolution knobs this engine does the
// same: perforation packs and multiplies only the kept output rows/columns
// (the GEMM's N shrinks) and interpolates the rest, and filter sampling
// drops the sampled filter positions from both operands (the GEMM's K
// shrinks) — see convpack.go. What perforation adds must cost less than
// what it skips: strided kept columns are packed by a vector permute, not
// gathered one float at a time; images that keep fewer outputs than a panel
// share one GEMM N; and one pass per plane moves the kept outputs and
// fills the skipped ones before the epilogue (convPlan.finish). Reduction
// sampling likewise visits only the sampled window elements. FP16 and
// PROMISE remain emulation: values are quantized or perturbed through their
// target format and computed in float32, so they add passes rather than save
// any. The FP16 pass is one
// F16C round trip per eight floats where the CPU has it, which brings an
// all-FP16 execution to within about a tenth of the exact one but not below
// it. For those — and for energy everywhere — the time impact is modeled
// analytically by internal/device using the compute/memory reduction
// factors of §3.4; EXPERIMENTS.md sets the measured speedups beside the
// modeled ones.
//
// Kernel tiers. The full-block GEMM micro-kernel exists twice and the CPU
// picks one at start-up (internal/cpu: CPUID + XGETBV, no flag, environment
// variable or build tag): where the processor has AVX and the OS saves YMM
// state, an AVX kernel computing a 4×16 tile from each pair of adjacent
// eight-wide panels and a 4×8 tile from an odd last one, and one row of A
// against a strip of four panels for the rows under a block
// (gemm_avx_amd64.s); everywhere else, amd64 without AVX included, the pure
// Go microKernel4 and microKernel1, which take each panel as two four-lane
// halves. The AVX tier also covers the rest of a layer: the copies
// that pack a convolution's panels (pack_avx_amd64.s), in rowops_avx_amd64.s
// the bias/activation/FP16 epilogue of a C row in one pass, tanh32 four
// float64 lanes at a time and the fill of perforated rows and columns, and
// in window_avx_amd64.s the depthwise convolution's rows of tap sums and max
// pooling's fold over a plane's interior windows at stride 2; the portable
// tier runs the scalar Go those transcribe. tensor.QuantizeFP16Slice has a vector tier of its own when
// F16C is present as well. KernelTier reports the choice. No kernel uses a
// fused multiply-add: its single rounding differs from the separate product
// and sum of the scalar reference, and every pin below is bit-for-bit. The
// scalar kernels write float32(x*y) + z, because Go may fuse x*y + z where
// the target has the instruction (arm64) unless a conversion rounds the
// product first. A row of C keeps one rule for a zero term in every column,
// the tail's included (a +0-padded panel through the same kernels), so an
// output's bits do not depend on where it lands in N: a full block of four
// rows multiplies every term, a zero weight or activation included; the row
// kernel under a block and the small-group sums skip a zero, as the
// reference GEMM does.
//
// Every fast path is pinned bit-identical to a retained reference: the
// blocked GEMM under each tier against the naive triple loop
// (gemm_test.go), the vector tanh against tanh32 over all 2^32 inputs
// (tanh_vector_test.go), the epilogue kernel against the scalar chain
// (rowops_test.go, table and fuzz), the row kernel against the reference,
// the depthwise rows, the perforated-row average and the column expansion
// against their scalar loops (rowops_test.go), max pooling against the reference loop
// (ops_test.go, special-value table and fuzz), the pack routines against
// their definition (pack_test.go), the fused epilogues against the standalone
// operators (panelcache_test.go), and the lowered
// convolution with its N- and K-shrinking against im2col + reference GEMM
// computing everything (convdiff_test.go, tables and fuzz, again under each
// tier).
package tensorops

import (
	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Precision selects the storage precision of a kernel. FP16 quantizes
// inputs, weights and outputs through IEEE half precision (accumulation
// stays in float32, matching tensor-core style hardware).
type Precision int

const (
	FP32 Precision = iota
	FP16
)

func (p Precision) String() string {
	if p == FP16 {
		return "fp16"
	}
	return "fp32"
}

// GEMM engine geometry. B is packed (prepacked) into row-panels of gemmNR
// contiguous columns, one YMM register per panel row; the inner kernels
// compute micro-tiles of gemmMR rows with every output element accumulating
// in a register lane over the full K extent, in ascending-l order. That
// order is exactly the reference triple loop's, so for a zeroed C the
// blocked kernel is bit-identical to the naive kernel (the differential
// tests pin this).
const (
	gemmMR = 4 // micro-tile rows (rows of A per inner kernel)
	gemmNR = 8 // panel width: the columns of one packed row

	// halfNR is the columns of one 128-bit half of a panel row: the
	// portable tile's width and the window packQuad permutes.
	halfNR = gemmNR / 2
)

// kernelTier names an implementation of the full-block micro-kernel and of
// the row kernels around it. All tiers perform the same operation sequence
// per output element and are pinned bit-identical to each other and to the
// reference.
type kernelTier int

// Ascending: a CPU that runs a tier runs every tier below it.
const (
	tierPortable kernelTier = iota // pure Go microKernel4, every architecture
	tierAVX                        // 4×16 tile over panel pairs, gemm_avx_amd64.s; row kernels, rowops_avx_amd64.s and window_avx_amd64.s
)

// gemmTier is the tier gemmRowBlock and the row kernels run, chosen once
// from what the CPU reports (internal/cpu). Nothing but the tests assigns it
// again.
var gemmTier = bestTier()

func (t kernelTier) String() string {
	return [...]string{"portable", "avx"}[t]
}

// KernelTier names the kernels this process runs, so that speed numbers
// from two hosts are never compared without it: "avx" is the 4×16 GEMM tile
// plus the vector row kernels (four-lane tanh32, the one-pass FP32 epilogue,
// the one-row GEMM strip, the depthwise tap sum, the max-pool fold); "avx+f16c" adds the F16C
// round trip, in QuantizeFP16Slice and inside the FP16 epilogue pass;
// "portable" is the Go tile over scalar row loops.
func KernelTier() string {
	if gemmTier == tierAVX && cpu.F16C {
		return "avx+f16c"
	}
	return gemmTier.String()
}

// Gemm computes C += A·B for row-major A (m×k), B (k×n), C (m×n): C must
// be zeroed by the caller if pure assignment is wanted. The engine stores
// its products, so the sum goes through pooled scratch and is added to C.
func Gemm(a, b, c []float32, m, k, n int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	t := tensor.Scratch(m * n)
	gemmFresh(a, b, t, m, k, n, false, nil)
	for i, v := range t {
		c[i] += v
	}
	tensor.Release(&t)
}

// gemmFresh computes C = A·B, m, k and n positive, for a B that no operand
// keeps packed: B is packed into pooled scratch by the builder a marked
// weight uses, quantized through FP16 when quantB is set, and the blocked
// kernel runs over it — at every m, so there is one form of B. ep, when
// non-nil, is applied to each C row as it completes.
func gemmFresh(a, b, c []float32, m, k, n int, quantB bool, ep *rowEpi) {
	buf := tensor.Scratch(prepackedLen(k, n))
	gemmRun(a, c, m, k, n, buildPrepacked(buf, b, k, n, quantB), ep)
	tensor.Release(&buf)
}

// gemmRun is the blocked kernel: C (m×n) = A (m×k) · B with B in packed
// form and k, n positive, in parallel over blocks of gemmMR rows — or, under
// gemmMR rows, over single rows. ep is as in gemmFresh. pre travels by value
// so that a pooled one does not escape.
func gemmRun(a, c []float32, m, k, n int, pre prepacked, ep *rowEpi) {
	unit := gemmMR
	if m < gemmMR {
		unit = 1
	}
	if parallel.Serial() {
		gemmBlockRange(0, m, a, c, pre, k, n, ep)
		return
	}
	parallel.ForChunked((m+unit-1)/unit, func(lo, hi int) {
		gemmBlockRange(lo*unit, min(hi*unit, m), a, c, pre, k, n, ep)
	})
}

// gemmBlockRange computes C rows [lo,hi), lo a multiple of gemmMR or hi−lo
// under it: full gemmMR-row blocks through the 4-row kernels, the rest
// through the row kernel, the padded tail panel included. The fused
// epilogue runs on each row of a block once the block is complete, while
// it is hot.
func gemmBlockRange(lo, hi int, a, c []float32, pre prepacked, k, n int, ep *rowEpi) {
	j0 := pre.np * gemmNR
	for i0 := lo; i0 < hi; i0 += gemmMR {
		rows := min(hi-i0, gemmMR)
		gemmRowBlock(a, c, pre.panels, i0, rows, k, n, 0, pre.np)
		if j0 < n {
			// The tail panel goes through the same kernels into a tile of
			// scratch, whose real columns are copied to C.
			var ct [gemmMR * gemmNR]float32
			gemmRowBlock(a[i0*k:], ct[:], pre.panels[j0*k:], 0, rows, k, gemmNR, 0, 1)
			for r := 0; r < rows; r++ {
				copy(c[(i0+r)*n+j0:(i0+r+1)*n], ct[r*gemmNR:])
			}
		}
		for i := i0; i < i0+rows; i++ {
			ep.apply(c[i*n:(i+1)*n], i)
		}
	}
}

// gemmRowBlock stores the `rows` (≤ gemmMR) rows of C starting at row i0
// computed against np consecutive packed panels, into C columns j0 onward
// (ldc is C's row stride). A full block goes through the AVX kernel, which
// takes every panel, or through the Go 4×4 tile one half-panel at a time;
// remainder rows take the one-row kernel, gemmRow1AVX on the AVX tier and
// the 1×4 edge kernel a half-panel at a time on the portable one.
func gemmRowBlock(a, c, panels []float32, i0, rows, k, ldc, j0, np int) {
	if k == 0 || np == 0 {
		return
	}
	if rows == gemmMR && gemmTier == tierAVX {
		gemmPanelsAVX(a, c, panels, i0, k, ldc, j0, np)
		return
	}
	if rows == gemmMR {
		a0 := a[i0*k : (i0+1)*k]
		a1 := a[(i0+1)*k : (i0+2)*k]
		a2 := a[(i0+2)*k : (i0+3)*k]
		a3 := a[(i0+3)*k : (i0+4)*k]
		c0 := c[i0*ldc+j0 : (i0+1)*ldc]
		c1 := c[(i0+1)*ldc+j0 : (i0+2)*ldc]
		c2 := c[(i0+2)*ldc+j0 : (i0+3)*ldc]
		c3 := c[(i0+3)*ldc+j0 : (i0+4)*ldc]
		for jp := 0; jp < np; jp++ {
			for h := 0; h < gemmNR; h += halfNR {
				panel, j := panels[jp*k*gemmNR+h:], jp*gemmNR+h
				microKernel4(a0, a1, a2, a3, panel,
					c0[j:j+halfNR], c1[j:j+halfNR], c2[j:j+halfNR], c3[j:j+halfNR])
			}
		}
		return
	}
	for r := 0; r < rows; r++ {
		arow := a[(i0+r)*k : (i0+r+1)*k]
		crow := c[(i0+r)*ldc+j0 : (i0+r+1)*ldc]
		if gemmTier == tierAVX {
			gemmRowAVX(arow, crow, panels, k, np)
			continue
		}
		for jp := 0; jp < np; jp++ {
			for h := 0; h < gemmNR; h += halfNR {
				j := jp*gemmNR + h
				microKernel1(arow, panels[jp*k*gemmNR+h:], crow[j:j+halfNR])
			}
		}
	}
}

// packRange copies B panels [plo,phi) into the packed layout
// packed[(jp*k+l)*gemmNR+j] = B[l][jp*gemmNR+j]: np contiguous panels of
// gemmNR columns each. The packed layout turns the micro-kernel's B
// accesses into a single forward stream and is read gemmMR rows at a time,
// so each B element is loaded from memory m/gemmMR times instead of m
// times. With quantB the copy quantizes through FP16 in the same pass.
func packRange(plo, phi int, b, packed []float32, k, n int, quantB bool) {
	for jp := plo; jp < phi; jp++ {
		j0 := jp * gemmNR
		dst := packed[jp*k*gemmNR : (jp+1)*k*gemmNR]
		for l := 0; l < k; l++ {
			src := (*[gemmNR]float32)(b[l*n+j0:])
			d := (*[gemmNR]float32)(dst[l*gemmNR:])
			if quantB {
				for j, v := range src {
					d[j] = tensor.QuantizeFP16(v)
				}
			} else {
				*d = *src
			}
		}
	}
}

// microKernel4 stores the 4×4 micro-tile C[r][j] = Σ_l A[r][l]·P[l][j]
// over the full K extent with all sixteen outputs held in scalar
// accumulators. The a slices are the four A rows (equal length k); panel
// starts at one four-lane half of a packed B panel, whose row l is
// panel[l·gemmNR:]; c0..c3 are the four halfNR-wide C row segments. It is
// the portable tier's tile — under AVX the assembly kernel runs instead,
// computing the same operation sequence per output element.
// No tier tests for zero A elements: an accumulator that starts at +0 is
// never −0, so a ±0 product leaves it unchanged and skipping one is not
// observable on finite operands; since filter sampling compacts K instead of
// zeroing it, there is also nothing left to skip.
func microKernel4(a0, a1, a2, a3, panel []float32, c0, c1, c2, c3 []float32) {
	kc := len(a0)
	a1 = a1[:kc]
	a2 = a2[:kc]
	a3 = a3[:kc]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	var s20, s21, s22, s23 float32
	var s30, s31, s32, s33 float32
	for l := 0; l < kc; l++ {
		v0, v1, v2, v3 := a0[l], a1[l], a2[l], a3[l]
		p := (*[halfNR]float32)(panel[l*gemmNR:])
		b0, b1, b2, b3 := p[0], p[1], p[2], p[3]
		s00 += float32(v0 * b0)
		s01 += float32(v0 * b1)
		s02 += float32(v0 * b2)
		s03 += float32(v0 * b3)
		s10 += float32(v1 * b0)
		s11 += float32(v1 * b1)
		s12 += float32(v1 * b2)
		s13 += float32(v1 * b3)
		s20 += float32(v2 * b0)
		s21 += float32(v2 * b1)
		s22 += float32(v2 * b2)
		s23 += float32(v2 * b3)
		s30 += float32(v3 * b0)
		s31 += float32(v3 * b1)
		s32 += float32(v3 * b2)
		s33 += float32(v3 * b3)
	}
	c0[0] = s00
	c0[1] = s01
	c0[2] = s02
	c0[3] = s03
	c1[0] = s10
	c1[1] = s11
	c1[2] = s12
	c1[3] = s13
	c2[0] = s20
	c2[1] = s21
	c2[2] = s22
	c2[3] = s23
	c3[0] = s30
	c3[1] = s31
	c3[2] = s32
	c3[3] = s33
}

// microKernel1 is the portable tier's 1×4 edge kernel for the rows under a
// full block, over one half-panel as microKernel4 reads it, with the
// per-element zero skip of the reference (ReLU-sparse activations benefit).
// gemmRow1AVX transcribes it over a row of panels.
func microKernel1(arow, panel []float32, crow []float32) {
	kc := len(arow)
	var s0, s1, s2, s3 float32
	for l := 0; l < kc; l++ {
		v := arow[l]
		if v == 0 {
			continue
		}
		p := (*[halfNR]float32)(panel[l*gemmNR:])
		s0 += float32(v * p[0])
		s1 += float32(v * p[1])
		s2 += float32(v * p[2])
		s3 += float32(v * p[3])
	}
	crow[0] = s0
	crow[1] = s1
	crow[2] = s2
	crow[3] = s3
}

// MatMul multiplies x (n×k) by the transpose-free weight w (k×m), returning
// an (n×m) tensor. It is the fully-connected / dense operator. With FP16
// precision the operands and result are quantized through half precision:
// the input through a pooled scratch copy (or the copy a marked tensor
// keeps), the weight during the GEMM pack step (no separate full-tensor
// pass).
func MatMul(x, w *tensor.Tensor, prec Precision) *tensor.Tensor {
	return MatMulFused(x, w, prec, Epilogue{})
}

// MatMulFused is MatMul with the bias/activation/FP16-writeback epilogue
// applied per C row during the GEMM instead of as separate whole-tensor
// passes, and with w's packed panels built once and kept on w when w is
// marked cacheable. Bit-identical to the unfused chain. Under FP16 an input
// marked ep.HalfIn is not rounded again.
func MatMulFused(x, w *tensor.Tensor, prec Precision, ep Epilogue) *tensor.Tensor {
	n, k := x.Dim(0), x.Elems()/x.Dim(0)
	if w.Rank() != 2 || w.Dim(0) != k {
		panicShape("MatMul", "weight shape %v incompatible with input inner dim %d", w.Shape(), k)
	}
	m := w.Dim(1)
	if ep.Bias != nil && ep.Bias.Elems() != m {
		panicShape("MatMul", "bias length %d != output features %d", ep.Bias.Elems(), m)
	}
	xd := x.Data()
	if prec == FP16 && !ep.HalfIn {
		if q, ok := cachedQuantized(x); ok {
			xd = q
		} else {
			xq := quantizedScratch(xd)
			defer tensor.Release(&xq)
			xd = xq
		}
	}
	// Every element of out is stored by the GEMM; bias indexes by column,
	// one per output feature.
	out := tensor.NewPooled(n, m)
	re := newRowEpi(ep, false, prec == FP16, true)
	if pre := cachedPrepackedB(w, k, m, prec); pre != nil {
		gemmRun(xd, out.Data(), n, k, m, *pre, re)
		return out
	}
	gemmFresh(xd, w.Data(), out.Data(), n, k, m, prec == FP16, re)
	return out
}

// quantizedScratch returns a pooled buffer holding d quantized through
// FP16. The caller must tensor.Release it when the kernel is done.
func quantizedScratch(d []float32) []float32 {
	q := tensor.Scratch(len(d))
	tensor.QuantizeFP16Slice(q, d)
	return q
}

func panicShape(op, format string, args ...any) {
	panic("tensorops: " + op + ": " + sprintf(format, args...))
}
