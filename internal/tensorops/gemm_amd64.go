package tensorops

import "repro/internal/cpu"

// gemmRows4AVX is the AVX kernel in gemm_avx_amd64.s: gemmMR rows of A
// starting at a (kc floats apart) against np adjacent panels, into the C rows
// starting at c (ldc floats apart). kc and np must be positive.
//
//go:noescape
func gemmRows4AVX(a, panels, c *float32, kc, ldc, np int)

// gemmRow1AVX is the one-row kernel there: one row of A (kc floats) against
// np adjacent panels, into the C row at c. kc and np must be positive.
//
//go:noescape
func gemmRow1AVX(a, panels, c *float32, kc, np int)

// packRunAVX is the pack routine in pack_avx_amd64.s: dst[(p*kc+l)*8 : +8] =
// src[offs[l]+8p : +8] for p < run, l < kc. It checks no bound (packRun
// does); kc and run must be positive.
//
//go:noescape
func packRunAVX(dst, src *float32, offs *int32, kc, run int)

// packQuadAVX is the other pack routine there: dst[l*8+q] = src[offs[l] +
// win[2h+s] + ctrl[q]&3] for l < kc, q < 8, where h = q/4 is the half of the
// row and s is 1 where ctrl[q] is negative, 0 otherwise. It checks no bound
// (packQuad does); kc must be positive.
//
//go:noescape
func packQuadAVX(dst, src *float32, offs *int32, kc int, win *[4]int32, ctrl *[gemmNR]int32)

// bestTier is the CPU's choice: AVX where the probe found it, otherwise the
// portable Go kernels, as on every other architecture.
func bestTier() kernelTier {
	if cpu.AVX {
		return tierAVX
	}
	return tierPortable
}

// gemmPanelsAVX runs the AVX kernel over all np panels for the row block at
// i0. The slice expressions are the bounds checks the assembly does not make.
func gemmPanelsAVX(a, c, panels []float32, i0, k, ldc, j0, np int) {
	ab := a[i0*k : (i0+gemmMR)*k]
	pb := panels[:np*k*gemmNR]
	cb := c[i0*ldc+j0 : (i0+gemmMR-1)*ldc+j0+np*gemmNR]
	gemmRows4AVX(&ab[0], &pb[0], &cb[0], k, ldc, np)
}

// gemmRowAVX runs the one-row kernel over all np panels, into crow's first
// np·gemmNR floats, with the bounds checks the assembly does not make.
func gemmRowAVX(arow, crow, panels []float32, k, np int) {
	pb := panels[:np*k*gemmNR]
	cb := crow[:np*gemmNR]
	gemmRow1AVX(&arow[:k][0], &pb[0], &cb[0], k, np)
}
