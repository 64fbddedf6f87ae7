package tensorops

import "math"

// Row kernels with a vector tier: the slice forms of tanh32, of
// perforation's average of two rows, of the small-group convolution's dot
// product and of max pooling's fold. Under tierAVX the bulk of a slice goes
// through rowops_avx_amd64.s or window_avx_amd64.s; the scalar loops below
// are the reference the assembly transcribes, the portable tier, and the
// remainder.

// rowVec is the shortest slice the eight-lane kernels take: they cover a
// ragged end with a last vector that overlaps the one before it.
const rowVec = 8

// tanhSlice sets dst[i] = tanh32(src[i]); dst must be at least as long as
// src, and either be src or not overlap it.
func tanhSlice(dst, src []float32) {
	dst = dst[:len(src)]
	done := 0
	if gemmTier == tierAVX {
		if groups := len(src) / 4; groups > 0 {
			tanh4AVX(&dst[0], &src[0], groups)
			done = groups * 4
		}
	}
	for i := done; i < len(src); i++ {
		dst[i] = tanh32(src[i])
	}
}

// interpRows sets dst[i] = 0.5·(a[i]+b[i]), the sum and the product each
// rounding to float32 — a skipped row between two kept ones; dst must not
// overlap a or b, which must be at least as long. Under tierAVX rows of at
// least rowVec go through interpRowsAVX.
func interpRows(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	if gemmTier == tierAVX && len(dst) >= rowVec {
		interpRowsAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	for i := range dst {
		dst[i] = 0.5 * (a[i] + b[i])
	}
}

// depthwiseRows sets dst[r·dstRow+j], for r < rows and j < n, to the sum
// from +0 of t.w·src[r·srcRow+j·stride+t.off] over taps in order, each
// product and sum rounding to float32; taps must ascend in off, and rows and
// n be positive. The loop is the small-group convolution's reference and
// its portable tier; under tierAVX, rows of at least four outputs at
// stride 1 or 2 go through window_avx_amd64.s.
func depthwiseRows(dst, src []float32, taps []convTap, n, stride, rows, dstRow, srcRow int) {
	dst = dst[:(rows-1)*dstRow+n]
	if gemmTier == tierAVX && (stride == 1 || stride == 2) && n >= 4 && len(taps) > 0 {
		src = src[:(rows-1)*srcRow+(n-1)*stride+int(taps[len(taps)-1].off)+1]
		depthwiseRowsAVX(&dst[0], &src[0], &taps[0], len(taps), n, stride, rows, dstRow, srcRow)
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstRow:r*dstRow+n], src[r*srcRow:]
		j := 0
		// Four outputs at a time: four independent sums, each still in tap order.
		for ; j+4 <= n; j += 4 {
			var a0, a1, a2, a3 float32
			sj := s[j*stride:]
			for _, t := range taps {
				o := int(t.off)
				a0 += float32(t.w * sj[o])
				a1 += float32(t.w * sj[o+stride])
				a2 += float32(t.w * sj[o+2*stride])
				a3 += float32(t.w * sj[o+3*stride])
			}
			d[j], d[j+1], d[j+2], d[j+3] = a0, a1, a2, a3
		}
		for ; j < n; j++ {
			var acc float32
			for _, t := range taps {
				acc += float32(t.w * s[j*stride+int(t.off)])
			}
			d[j] = acc
		}
	}
}

// maxRows sets dst[r·dstRow+j], for r < rows and j < n, to the max-pool
// fold of src[r·srcRow+j·stride+t.off] over taps, which must be non-empty
// and ascending in off: best starts at −Inf and takes a tap only when it is
// greater, so a NaN never wins and of +0 and −0 the first stays. rows and n
// must be positive. Under tierAVX, rows of at least four outputs at stride 2
// (every max pool in the zoo) go through window_avx_amd64.s.
func maxRows(dst, src []float32, taps []poolTap, n, stride, rows, dstRow, srcRow int) {
	dst = dst[:(rows-1)*dstRow+n]
	src = src[:(rows-1)*srcRow+(n-1)*stride+taps[len(taps)-1].off+1]
	if gemmTier == tierAVX && stride == 2 && n >= 4 {
		poolMaxAVX(&dst[0], &src[0], &taps[0], len(taps), n, rows, dstRow, srcRow)
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstRow:r*dstRow+n], src[r*srcRow:]
		for j := range d {
			best := float32(math.Inf(-1))
			for _, t := range taps {
				if v := s[j*stride+t.off]; v > best {
					best = v
				}
			}
			d[j] = best
		}
	}
}
