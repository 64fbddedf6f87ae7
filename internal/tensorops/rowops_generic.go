//go:build !amd64

package tensorops

// Never reached: gemmTier is tierPortable here, so the scalar loops run.

func tanh4AVX(dst, src *float32, groups int) {}

func epilogueRowAVX(p *float32, n int, bias *float32, flags int, clip float32) {}

func interpRowsAVX(dst, a, b *float32, n int) {}

func expandColsAVX(row, kept *float32, steps *colStep, n int) {}

func poolMaxAVX(dst, src *float32, taps *poolTap, ntaps, n, rows, dstRow, srcRow int) {}

func depthwiseRowsAVX(dst, src *float32, taps *convTap, ntaps, n, stride, rows, dstRow, srcRow int) {}
