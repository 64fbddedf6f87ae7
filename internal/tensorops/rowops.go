package tensorops

// Row kernels with a vector tier: the slice forms of tanh32 and of the
// streaming kernels' d[j] += a·s[j]. Under tierAVX the bulk of a slice goes
// through rowops_avx_amd64.s; the scalar loops below are the reference the
// assembly transcribes, the sse2/portable tiers, and the remainder.

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

// axpy adds a·src[j] to dst[j], product and sum each rounding to float32,
// for every j < len(dst); src must be at least as long and not overlap dst.
func axpy(dst, src []float32, a float32) {
	src = src[:len(dst)]
	if gemmTier == tierAVX && len(dst) >= rowVec {
		axpyAVX(&dst[0], &src[0], len(dst), a)
		return
	}
	for j, sv := range src {
		dst[j] += a * sv
	}
}
