package tensorops

import "repro/internal/cpu"

// microKernel4SSE is the SSE2 micro-kernel in gemm_amd64.s. The slices
// behind the pointers must hold at least kc elements (kc*gemmNR for panel)
// and gemmNR elements for the C rows.
//
//go:noescape
func microKernel4SSE(a0, a1, a2, a3, panel, c0, c1, c2, c3 *float32, kc int)

// gemmRows4AVX is the AVX kernel in gemm_avx_amd64.s: gemmMR rows of A
// starting at a (kc floats apart) against 2·pairs adjacent panels, into the
// C rows starting at c (ldc floats apart). kc and pairs must be positive.
//
//go:noescape
func gemmRows4AVX(a, panels, c *float32, kc, ldc, pairs int)

// packRunAVX is the pack routine in pack_avx_amd64.s: dst[(p*kc+l)*4 : +4] =
// src[offs[l]+4p : +4] for p < run, l < kc. It checks no bound (packRun
// does); kc and run must be positive.
//
//go:noescape
func packRunAVX(dst, src *float32, offs *int32, kc, run int)

// bestTier is the CPU's choice: AVX where the probe found it, otherwise
// SSE2, which every amd64 has.
func bestTier() kernelTier {
	if cpu.AVX {
		return tierAVX
	}
	return tierSSE2
}

// microTile4 is the 4×4 tile update of one panel: the SSE2 kernel, or the
// pure Go microKernel4 when the tests select the portable tier.
func microTile4(a0, a1, a2, a3, panel []float32, c0, c1, c2, c3 []float32) {
	if gemmTier == tierPortable {
		microKernel4(a0, a1, a2, a3, panel, c0, c1, c2, c3)
		return
	}
	microKernel4SSE(&a0[0], &a1[0], &a2[0], &a3[0], &panel[0], &c0[0], &c1[0], &c2[0], &c3[0], len(a0))
}

// panelPairsAVX runs the 4×8 AVX kernel over the leading pairs of np
// panels for the row block at i0 and returns how many panels it consumed
// (np rounded down to even). The slice expressions are the bounds checks
// the assembly does not make.
func panelPairsAVX(a, c, panels []float32, i0, k, ldc, j0, np int) int {
	pairs := np / 2
	if pairs == 0 {
		return 0
	}
	ab := a[i0*k : (i0+gemmMR)*k]
	pb := panels[:2*pairs*k*gemmNR]
	cb := c[i0*ldc+j0 : (i0+gemmMR-1)*ldc+j0+2*pairs*gemmNR]
	gemmRows4AVX(&ab[0], &pb[0], &cb[0], k, ldc, pairs)
	return 2 * pairs
}
