package tensorops

// The kernels in rowops_avx_amd64.s and window_avx_amd64.s. None checks a
// bound: the callers in rowops.go and epilogue.go slice first.

//go:noescape
func tanh4AVX(dst, src *float32, groups int)

//go:noescape
func epilogueRowAVX(p *float32, n int, bias *float32, flags int, clip float32)

//go:noescape
func interpRowsAVX(dst, a, b *float32, n int)

//go:noescape
func expandColsAVX(row, kept *float32, steps *colStep, n int)

//go:noescape
func poolMaxAVX(dst, src *float32, taps *poolTap, ntaps, n, rows, dstRow, srcRow int)

//go:noescape
func depthwiseRowsAVX(dst, src *float32, taps *convTap, ntaps, n, stride, rows, dstRow, srcRow int)
