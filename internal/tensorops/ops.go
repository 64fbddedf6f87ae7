package tensorops

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ReLU applies max(0,x) elementwise.
func ReLU(x *tensor.Tensor, prec Precision) *tensor.Tensor {
	return ApplyEpilogue(x.Clone(), Epilogue{Act: ActReLU}, prec)
}

// ClippedReLU applies min(max(0,x),clip) elementwise (ReLU6 with clip=6,
// used by MobileNet).
func ClippedReLU(x *tensor.Tensor, clip float32, prec Precision) *tensor.Tensor {
	return ApplyEpilogue(x.Clone(), Epilogue{Act: ActClippedReLU, Clip: clip}, prec)
}

// Tanh applies tanh elementwise (tanh32 — the float32-targeted kernel
// shared with the fused epilogues).
func Tanh(x *tensor.Tensor, prec Precision) *tensor.Tensor {
	return ApplyEpilogue(x.Clone(), Epilogue{Act: ActTanh}, prec)
}

// BiasAdd adds a per-channel bias b (length C) to a (N,C,H,W) or (N,C)
// tensor.
func BiasAdd(x, b *tensor.Tensor, prec Precision) *tensor.Tensor {
	return ApplyEpilogue(x.Clone(), Epilogue{Bias: b}, prec)
}

// Add returns the elementwise sum of two equal-shaped tensors (residual
// connections).
func Add(a, b *tensor.Tensor, prec Precision) *tensor.Tensor {
	out := a.Clone()
	out.Add(b)
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// PoolParams carries pooling geometry.
type PoolParams struct {
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// Norm defaults strides to the kernel size when zero.
func (p PoolParams) Norm() PoolParams {
	if p.StrideH == 0 {
		p.StrideH = p.KH
	}
	if p.StrideW == 0 {
		p.StrideW = p.KW
	}
	return p
}

// MaxPool computes max pooling over (N,C,H,W).
func MaxPool(x *tensor.Tensor, p PoolParams, prec Precision) *tensor.Tensor {
	return poolSampled(x, p, prec, false, 1, 1)
}

// AvgPool computes average pooling over (N,C,H,W).
func AvgPool(x *tensor.Tensor, p PoolParams, prec Precision) *tensor.Tensor {
	return poolSampled(x, p, prec, true, 1, 1)
}

// MaxPoolSampled and AvgPoolSampled apply the reduction-sampling
// approximation (after Zhu et al.): the reduction uses only a subset of its
// inputs. ratioNum/ratioDen gives the kept fraction — the paper's three
// knobs are 1/2 (50%), 2/5 (40%) and 1/4 (25%). Averages are computed over
// the sampled subset (the "appropriate constant" rescaling); max is taken
// over the subset. Padding is skipped, and a window none of whose kept taps
// is inside the input gives 0.
func MaxPoolSampled(x *tensor.Tensor, p PoolParams, ratioNum, ratioDen int, prec Precision) *tensor.Tensor {
	return poolSampled(x, p, prec, false, ratioNum, ratioDen)
}

// AvgPoolSampled — see MaxPoolSampled.
func AvgPoolSampled(x *tensor.Tensor, p PoolParams, ratioNum, ratioDen int, prec Precision) *tensor.Tensor {
	return poolSampled(x, p, prec, true, ratioNum, ratioDen)
}

// poolTap is a kept window position: rows and columns from the window's
// top left, and off, its distance in the input from the top-left element.
// window_avx_amd64.s reads off through go_asm.h.
type poolTap struct{ ky, kx, off int }

func poolSampled(x *tensor.Tensor, p PoolParams, prec Precision, avg bool, num, den int) *tensor.Tensor {
	p = p.Norm()
	if x.Rank() != 4 {
		panicShape("Pool", "need 4-D input, got %v", x.Shape())
	}
	if num <= 0 || den <= 0 || num > den {
		panicShape("Pool", "bad sampling ratio %d/%d", num, den)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho := tensor.ConvOutDim(h, p.KH, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(w, p.KW, p.StrideW, p.PadW)
	xd := x.Data()
	if prec == FP16 {
		q := quantizedScratch(xd)
		defer tensor.Release(&q)
		xd = q
	}
	out := tensor.New(n, c, ho, wo)
	od := out.Data()
	// The window's kept taps, found once: tap k = ky·KW+kx survives
	// sampling when (k·num) mod den < num, so tap 0 always does.
	taps := make([]poolTap, 0, p.KH*p.KW)
	for k := 0; k < p.KH*p.KW; k++ {
		if (k*num)%den < num {
			taps = append(taps, poolTap{k / p.KW, k % p.KW, k/p.KW*w + k%p.KW})
		}
	}
	// Windows of output rows [rlo, rhi) and columns [clo, chi) lie inside
	// the input: that block is reduced in one call with no bound tests, the
	// windows around it one at a time.
	sh, sw, ph, pw := p.StrideH, p.StrideW, p.PadH, p.PadW
	rlo, rhi := poolInterior(h, p.KH, sh, ph, ho)
	clo, chi := poolInterior(w, p.KW, sw, pw, wo)
	parallel.For(n*c, func(nc int) {
		in := xd[nc*h*w : (nc+1)*h*w]
		o := od[nc*ho*wo : (nc+1)*ho*wo]
		for oy := 0; oy < ho; oy++ {
			a, b := 0, 0 // the row's windows left to the block
			if oy >= rlo && oy < rhi {
				a, b = clo, chi
			}
			iy0 := oy*sh - ph
			for ox := 0; ox < a; ox++ {
				o[oy*wo+ox] = poolWindow(in, h, w, iy0, ox*sw-pw, taps, avg)
			}
			for ox := b; ox < wo; ox++ {
				o[oy*wo+ox] = poolWindow(in, h, w, iy0, ox*sw-pw, taps, avg)
			}
		}
		if rlo < rhi && clo < chi {
			dst, src := o[rlo*wo+clo:], in[(rlo*sh-ph)*w+clo*sw-pw:]
			if avg {
				avgRows(dst, src, taps, chi-clo, sw, rhi-rlo, wo, sh*w)
			} else {
				maxRows(dst, src, taps, chi-clo, sw, rhi-rlo, wo, sh*w)
			}
		}
	})
	// A maximum is one of the quantized inputs or 0, so only averages need
	// rounding back to half precision.
	if prec == FP16 && avg {
		out.ToFP16()
	}
	return out
}

// poolWindow reduces a window with taps outside the input, which are
// skipped: the max or float64 mean of the kept taps inside, or 0 when there
// is none.
func poolWindow(in []float32, h, w, iy0, ix0 int, taps []poolTap, avg bool) float32 {
	var acc float64
	count := 0
	best := float32(math.Inf(-1))
	for _, t := range taps {
		iy, ix := iy0+t.ky, ix0+t.kx
		if uint(iy) >= uint(h) || uint(ix) >= uint(w) {
			continue
		}
		v := in[iy*w+ix]
		count++
		if avg {
			acc += float64(v)
		} else if v > best {
			best = v
		}
	}
	switch {
	case count == 0:
		return 0
	case avg:
		return float32(acc / float64(count))
	}
	return best
}

// poolInterior returns the output positions [lo, hi) along one axis whose
// windows lie inside the input: extent in, window k, stride s, padding p,
// out positions.
func poolInterior(in, k, s, p, out int) (lo, hi int) {
	lo = min((p+s-1)/s, out)
	hi = lo
	if last := in - k + p; last >= 0 {
		hi = max(lo, min(last/s+1, out))
	}
	return lo, hi
}

// avgRows is maxRows's counterpart for average pooling: each output is the
// float64 mean of its kept taps.
func avgRows(dst, src []float32, taps []poolTap, n, stride, rows, dstRow, srcRow int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstRow:r*dstRow+n], src[r*srcRow:]
		for j := range d {
			var acc float64
			for _, t := range taps {
				acc += float64(s[j*stride+t.off])
			}
			d[j] = float32(acc / float64(len(taps)))
		}
	}
}

// BatchNormParams holds per-channel inference-time normalization state.
type BatchNormParams struct {
	Gamma, Beta, Mean, Var *tensor.Tensor
	Eps                    float32
}

// BatchNorm applies inference-mode batch normalization per channel of a
// (N,C,H,W) tensor.
func BatchNorm(x *tensor.Tensor, bp BatchNormParams, prec Precision) *tensor.Tensor {
	if x.Rank() != 4 {
		panicShape("BatchNorm", "need 4-D input, got %v", x.Shape())
	}
	c := x.Dim(1)
	if bp.Gamma.Elems() != c || bp.Beta.Elems() != c || bp.Mean.Elems() != c || bp.Var.Elems() != c {
		panicShape("BatchNorm", "parameter length mismatch for %d channels", c)
	}
	eps := bp.Eps
	if eps == 0 {
		eps = 1e-5
	}
	n := x.Dim(0)
	spatial := x.Dim(2) * x.Dim(3)
	out := x.Clone()
	od := out.Data()
	g, b, m, v := bp.Gamma.Data(), bp.Beta.Data(), bp.Mean.Data(), bp.Var.Data()
	scale := make([]float32, c)
	shift := make([]float32, c)
	for ch := 0; ch < c; ch++ {
		s := g[ch] / float32(math.Sqrt(float64(v[ch]+eps)))
		scale[ch] = s
		shift[ch] = b[ch] - float32(s*m[ch])
	}
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * spatial
			s, sh := scale[ch], shift[ch]
			seg := od[base : base+spatial]
			for i := range seg {
				seg[i] = float32(seg[i]*s) + sh
			}
		}
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// Softmax applies a numerically-stable softmax over the last dimension of
// an (N,K) tensor. The paper stores the softmax output as the program's
// "raw tensor output" for profile collection.
func Softmax(x *tensor.Tensor, prec Precision) *tensor.Tensor {
	if x.Rank() != 2 {
		panicShape("Softmax", "need 2-D logits, got %v", x.Shape())
	}
	n, k := x.Dim(0), x.Dim(1)
	out := x.Clone()
	od := out.Data()
	for r := 0; r < n; r++ {
		row := od[r*k : (r+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxv))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// ReduceKind selects the reduction operator for Reduce.
type ReduceKind int

const (
	ReduceSum ReduceKind = iota
	ReduceMean
	ReduceMax
)

// Reduce collapses the trailing spatial dimensions of a (N,C,H,W) tensor to
// (N,C) using the given operator. A sampling ratio num/den < 1 applies the
// reduction-sampling approximation; sums are rescaled by den/num and means
// are computed over the sampled subset.
func Reduce(x *tensor.Tensor, kind ReduceKind, num, den int, prec Precision) *tensor.Tensor {
	if x.Rank() != 4 {
		panicShape("Reduce", "need 4-D input, got %v", x.Shape())
	}
	if num <= 0 || den <= 0 || num > den {
		panicShape("Reduce", "bad sampling ratio %d/%d", num, den)
	}
	n, c := x.Dim(0), x.Dim(1)
	spatial := x.Dim(2) * x.Dim(3)
	xd := x.Data()
	if prec == FP16 {
		q := quantizedScratch(xd)
		defer tensor.Release(&q)
		xd = q
	}
	out := tensor.New(n, c)
	od := out.Data()
	keep := func(i int) bool { return (i*num)%den < num }
	parallel.For(n*c, func(nc int) {
		seg := xd[nc*spatial : (nc+1)*spatial]
		var acc float64
		count := 0
		best := float32(math.Inf(-1))
		for i, v := range seg {
			if !keep(i) {
				continue
			}
			count++
			acc += float64(v)
			if v > best {
				best = v
			}
		}
		switch kind {
		case ReduceSum:
			// Rescale the sampled sum back to full-population scale.
			od[nc] = float32(acc * float64(spatial) / float64(max(count, 1)))
		case ReduceMean:
			if count > 0 {
				od[nc] = float32(acc / float64(count))
			}
		case ReduceMax:
			if count > 0 {
				od[nc] = best
			}
		}
	})
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// Flatten reshapes (N,...) to (N,K).
func Flatten(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	return x.Reshape(n, x.Elems()/n)
}
