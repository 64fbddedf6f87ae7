package tensorops

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// ConvParams carries the geometry of a 2-D convolution.
type ConvParams struct {
	StrideH, StrideW int
	PadH, PadW       int
	// Groups > 1 gives grouped convolution; Groups == input channels with
	// one filter per channel is the depthwise convolution MobileNet uses.
	Groups int
}

// Norm returns params with zero-value fields defaulted (stride 1, groups 1).
func (p ConvParams) Norm() ConvParams {
	if p.StrideH == 0 {
		p.StrideH = 1
	}
	if p.StrideW == 0 {
		p.StrideW = 1
	}
	if p.Groups == 0 {
		p.Groups = 1
	}
	return p
}

// Conv2D computes an exact 2-D convolution. x is (N,Ci,H,W), w is
// (Co,Ci/G,Kh,Kw); the result is (N,Co,Ho,Wo). With FP16 precision the
// operands and result pass through half-precision quantization.
func Conv2D(x, w *tensor.Tensor, p ConvParams, prec Precision) *tensor.Tensor {
	return convolve(x, w, p, prec, nil, sampSpec{}, Epilogue{})
}

// Conv2DFused is Conv2D with the bias/activation/FP16-writeback epilogue
// fused into the GEMM writeback: each output row (one output channel's
// spatial plane) gets bias, activation and quantization applied as it
// completes, instead of three whole-tensor clone-and-sweep passes
// afterwards. Bit-identical to the unfused chain.
func Conv2DFused(x, w *tensor.Tensor, p ConvParams, prec Precision, ep Epilogue) *tensor.Tensor {
	return convolve(x, w, p, prec, nil, sampSpec{}, ep)
}

// perfSpec describes output-perforation for the perforated-convolution
// approximation: which output rows or columns are skipped.
type perfSpec struct {
	dir    PerfDirection
	stride int // skip 1 of every `stride`
	offset int
}

// skips reports whether output row/column i is perforated.
func (p *perfSpec) skips(i int) bool { return i%p.stride == p.offset }

// kept is the index among the kept rows/columns of row/column i, which
// must be kept: i less the skipped ones before it.
func (p *perfSpec) kept(i int) int {
	if i <= p.offset {
		return i
	}
	return i - (i-p.offset+p.stride-1)/p.stride
}

// fillStep is how fillSteps computes one output of a perforated plane from
// its kept outputs: the average of kept[lo] and kept[hi], kept[lo] when
// hi == lo, +0 when lo < 0.
type fillStep struct{ lo, hi int32 }

// fillTable appends one step per output of an (ho × wo) plane, row-major,
// to st: the kept neighbours in the operand order fillRows and fillCols use
// (lower or left first). nk is the count of kept rows or columns.
func (p *perfSpec) fillTable(st []fillStep, ho, wo, nk int) []fillStep {
	for y := 0; y < ho; y++ {
		for x := 0; x < wo; x++ {
			i, lim := y, ho // along the perforated axis
			at := func(i int) int32 { return int32(p.kept(i)*wo + x) }
			if p.dir == PerfCols {
				i, lim = x, wo
				at = func(i int) int32 { return int32(y*nk + p.kept(i)) }
			}
			switch {
			case !p.skips(i):
				st = append(st, fillStep{at(i), at(i)})
			case i > 0 && i+1 < lim:
				st = append(st, fillStep{at(i - 1), at(i + 1)})
			case i > 0:
				st = append(st, fillStep{at(i - 1), at(i - 1)})
			case i+1 < lim:
				st = append(st, fillStep{at(i + 1), at(i + 1)})
			default:
				st = append(st, fillStep{-1, -1})
			}
		}
	}
	return st
}

// convolve is the shared engine: exact convolution over the output elements
// perf keeps (all of them when perf is nil) and the filter positions samp
// keeps (all of them for the zero samp). The layer is lowered once per
// knob and input extent (lowerConv) and B panels are packed from the input
// planes through its tables (convpack.go); perforation shrinks the GEMM's N
// and filter sampling its K, so a skipped output or filter element costs
// nothing. ep is fused
// into the GEMM writeback, or under perforation — whose interpolation needs
// the raw output — into the pass that fills the skipped positions
// (convPlan.finish).
func convolve(x, w *tensor.Tensor, p ConvParams, prec Precision, perf *perfSpec, samp sampSpec, ep Epilogue) *tensor.Tensor {
	p = p.Norm()
	if x.Rank() != 4 || w.Rank() != 4 {
		panicShape("Conv2D", "need 4-D input and weight, got %v and %v", x.Shape(), w.Shape())
	}
	n, ci, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	co, cig, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := p.Groups
	if ci%g != 0 || co%g != 0 || cig != ci/g {
		panicShape("Conv2D", "groups=%d incompatible with Ci=%d Co=%d weight Ci/G=%d", g, ci, co, cig)
	}
	if ep.Bias != nil && ep.Bias.Elems() != co {
		panicShape("Conv2D", "bias length %d != output channels %d", ep.Bias.Elems(), co)
	}
	ho := tensor.ConvOutDim(h, kh, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(wd, kw, p.StrideW, p.PadW)

	// The weight as passed keeps the lowering; the tap table's key names
	// the sampling as asked for, as its values depend on it.
	wt, asked := w, samp
	if samp.stride != 0 {
		// The weight operand loses the sampled K columns (kept on a
		// cacheable weight, and cacheable in turn so its FP16
		// quantization is kept as well).
		if samp.keptK(cig*kh*kw) == 0 {
			// A one-element filter with its element sampled out: the zero
			// filter, which needs no sampling.
			w, samp = tensor.New(co, cig, kh, kw), sampSpec{}
		} else if cw := cachedSampledFilter(w, samp); cw != nil {
			w = cw
		} else {
			w = compactSampledFilter(w, samp)
		}
	}
	pl := lowerConv(wt, n, ci, h, wd, ho, wo, p, perf, samp)
	xd, wdat := x.Data(), w.Data()
	if prec == FP16 {
		// Marked tensors (constant weights, calibration inputs) keep their
		// quantized copy — built once, reused across thousands of tuning
		// executions; the others quantize into pooled scratch. The copy of
		// x is the one activation-derived operand that is kept: quantizing
		// marked activations afresh on every call cost the alexnet2 tuning
		// passes about 8 % of their wall time. An input that holds half
		// values already (ep.HalfIn) is read as it is.
		if !ep.HalfIn {
			if q, ok := cachedQuantized(x); ok {
				xd = q
			} else {
				xq := quantizedScratch(xd)
				defer tensor.Release(&xq)
				xd = xq
			}
		}
		if q, ok := cachedQuantized(w); ok {
			wdat = q
		} else {
			wq := quantizedScratch(wdat)
			defer tensor.Release(&wq)
			wdat = wq
		}
	}

	out := tensor.NewPooled(n, co, ho, wo) // every element stored below
	od := out.Data()

	cog := co / g // output channels per group
	how := ho * wo
	var tp *convTaps
	if cog < gemmMR {
		key, ok := convKey(packTaps, h, wd, 0, p, nil, asked, prec)
		tp = pl.lowerTaps(wt, key, ok, wdat, co)
	}
	wsz := cog * pl.kc // one group's weight block

	// The epilogue of one output channel's plane: a C row is one output
	// channel, so bias indexes by row. Perforation runs it after it has
	// filled the plane; the GEMM writeback then has none.
	re := newRowEpi(ep, true, prec == FP16, true)
	fused, post := re, (*rowEpi)(nil)
	if perf != nil {
		fused, post = nil, re
	}

	// The blocked kernel spreads each (image, group) over the workers
	// itself, so whole images are dispatched — all of them at once when
	// they share N; groups with too few rows to amortize packing (depthwise
	// has cog == 1) are summed tap by tap from the planes (direct), one
	// (image, group) per unit of dispatch.
	grain := g
	if cog < gemmMR {
		grain = 1
	}
	imgs, ncols := pl.imgs, pl.ncols()
	parallel.ForChunked(n/imgs*g/grain, func(lo, hi int) {
		// A worker's own scratch besides the panels it packs: the padded
		// planes of the (images, group) it is on and, when images share N,
		// the (cog × ncols) product they are scattered from and, under
		// perforation, the filled planes. Otherwise the product's
		// rows are the output planes' own first elements, which perforation
		// then spreads over the plane.
		var pad, shared, full []float32
		if pl.ph|pl.pw != 0 {
			pad = tensor.Scratch(imgs * cig * pl.hp * pl.wp)
			defer tensor.Release(&pad)
		}
		if imgs > 1 {
			shared = tensor.Scratch(cog * ncols)
			defer tensor.Release(&shared)
			if perf != nil {
				full = tensor.Scratch(cog * imgs * how)
				defer tensor.Release(&full)
			}
		}
		for u := lo * grain; u < hi*grain; u++ {
			img, grp := u/g*imgs, u%g
			planes := pl.planes(xd, pad, img, grp, u == lo*grain)
			oblock := od[(img*co+grp*cog)*how : (img*co+(grp+1)*cog)*how]
			switch {
			case cog < gemmMR:
				pl.direct(tp, planes, oblock, cog, fused, grp*cog)
				if perf != nil {
					pl.finish(oblock, oblock, cog, post, grp*cog)
				}
			case imgs == 1:
				pl.blocked(wdat[grp*wsz:(grp+1)*wsz], planes, oblock, cog, how, fused, grp*cog)
				if perf != nil {
					pl.finish(oblock, oblock, cog, post, grp*cog)
				}
			default:
				pl.blocked(wdat[grp*wsz:(grp+1)*wsz], planes, shared, cog, ncols, fused, grp*cog)
				src := shared
				if perf != nil {
					// Channel by channel: fill every image's plane side
					// by side, one epilogue over them all.
					for i := 0; i < cog; i++ {
						f, k := full[i*imgs*how:(i+1)*imgs*how], shared[i*ncols:(i+1)*ncols]
						for b := 0; b < imgs; b++ {
							pl.fillSteps(f[b*how:(b+1)*how], k[b*pl.per:(b+1)*pl.per])
						}
						post.apply(f, grp*cog+i)
					}
					src = full
				}
				// Image by image, whose planes of the group are contiguous.
				for b := 0; b < imgs; b++ {
					dst := od[((img+b)*co+grp*cog)*how : ((img+b)*co+(grp+1)*cog)*how]
					for i := 0; i < cog; i++ {
						copy(dst[i*how:(i+1)*how], src[(i*imgs+b)*how:])
					}
				}
			}
		}
	})
	return out
}

// finish completes the m output planes of one (image, group) under
// perforation, one plane at a time while it is in cache: fill, then ep over
// the whole plane — the order of the three whole-tensor passes this
// replaces, so the same bits. src holds the kept outputs in packed order,
// plane i's first (the kernels write them there, ldc = ho·wo). The planes
// are split over the team when it is free — at batch one the (image,
// group) loop around this runs on the caller alone.
func (pl *convPlan) finish(out, src []float32, m int, ep *rowEpi, chan0 int) {
	if parallel.Available() == 0 {
		pl.finishPlanes(0, m, out, src, m, ep, chan0)
		return
	}
	parallel.ForChunked(m, func(lo, hi int) {
		pl.finishPlanes(lo, hi, out, src, m, ep, chan0)
	})
}

// finishPlanes is finish over planes [lo,hi).
func (pl *convPlan) finishPlanes(lo, hi int, out, src []float32, m int, ep *rowEpi, chan0 int) {
	how := len(out) / m
	for i := lo; i < hi; i++ {
		plane := out[i*how : (i+1)*how]
		kept := src[i*how : i*how+pl.per]
		switch {
		case pl.steps != nil:
			pl.fillSteps(plane, kept)
		case pl.perf.dir == PerfRows:
			pl.fillRows(plane, kept)
		default:
			pl.fillCols(plane, kept)
		}
		ep.apply(plane, chan0+i)
	}
}

// fillSteps writes one perforated plane from its kept outputs, which may be
// the plane's own first elements, an element at a time through pl.steps —
// a copy of one kept output, the average of two, or +0 — with the operands
// of fillRows and fillCols in their order: planes narrower than a vector,
// and those of images that share N, cost more per row than per element.
// Last first, as a kept output never lies past the outputs it fills.
func (pl *convPlan) fillSteps(plane, kept []float32) {
	plane = plane[:len(pl.steps)]
	for e := len(pl.steps) - 1; e >= 0; e-- {
		switch st := pl.steps[e]; {
		case st.lo < 0:
			plane[e] = 0
		case st.lo == st.hi:
			plane[e] = kept[st.lo]
		default:
			plane[e] = 0.5 * (kept[st.lo] + kept[st.hi])
		}
	}
}

// fillRows writes the rows of one (ho × wo) output plane: kept row r from
// kept[r·wo:], each skipped row the nearest-neighbor average of the kept
// rows beside it — Figurnov et al.'s perforated convolution — or, at an
// edge, a copy of the one that exists.
// One in every stride ≥ 2 rows is skipped, so a skipped row's nearest kept
// neighbours are adjacent to it. Bottom up, a kept row is moved down before
// anything is written over it, and a skipped row's lower neighbour is read
// where it still is; the upper one is already in place.
func (pl *convPlan) fillRows(plane, kept []float32) {
	oy, wo := pl.oy, pl.wo
	ho := len(plane) / wo
	r := len(oy) - 1
	for y := ho - 1; y >= 0; y-- {
		row := plane[y*wo : (y+1)*wo]
		if r >= 0 && int(oy[r]) == y {
			copy(row, kept[r*wo:(r+1)*wo])
			r--
			continue
		}
		var below []float32
		if r >= 0 {
			below = kept[r*wo : (r+1)*wo]
		}
		switch {
		case below != nil && y+1 < ho:
			interpRows(row, below, plane[(y+1)*wo:(y+2)*wo])
		case below != nil:
			copy(row, below)
		case y+1 < ho:
			copy(row, plane[(y+1)*wo:(y+2)*wo])
		default:
			clear(row)
		}
	}
}

// fillCols is fillRows across: row y's kept columns come from
// kept[y·len(ox):], last row first, and each skipped column is the average
// of its neighbours in the row, four outputs at a time (expandCols). Rows
// this wide keep at least four columns.
func (pl *convPlan) fillCols(plane, kept []float32) {
	wo, nx := pl.wo, len(pl.ox)
	for y := len(plane)/wo - 1; y >= 0; y-- {
		expandCols(plane[y*wo:(y+1)*wo], kept[y*nx:(y+1)*nx], pl.colSteps)
	}
}

// colStep is four outputs x = 4g… of a column-perforated row, computed from
// the four kept values kept[w:w+4]: lane q is win[a[q]], or, where avg[q] is
// −1, 0.5·(win[a[q]] + win[b[q]]) — its left and right kept neighbours. An
// edge column copies its one neighbour. expandColsAVX reads it through
// go_asm.h.
type colStep struct {
	a, b, avg [colVec]int32
	w         int32
	_         [3]int32
}

// colVec is the outputs of one colStep: one XMM register.
const colVec = 4

// colTable appends the steps of a row of wo outputs, nk ≥ 4 of them kept,
// to st.
func (p *perfSpec) colTable(st []colStep, wo, nk int) []colStep {
	for x0 := 0; x0 < wo; x0 += colVec {
		var s colStep
		// The window starts at the leftmost kept value any lane needs,
		// moved left to stay inside the row; four kept values always span
		// a lane's neighbours.
		lo := x0
		if p.skips(x0) && x0 > 0 {
			lo = x0 - 1
		}
		if lo == 0 && p.skips(0) {
			lo = 1
		}
		s.w = int32(min(p.kept(lo), nk-colVec))
		for q := 0; q < colVec && x0+q < wo; q++ {
			x := x0 + q
			at := func(i int) int32 { return int32(p.kept(i)) - s.w }
			switch {
			case !p.skips(x):
				s.a[q], s.b[q] = at(x), at(x)
			case x > 0 && x+1 < wo:
				s.a[q], s.b[q], s.avg[q] = at(x-1), at(x+1), -1
			case x > 0:
				s.a[q], s.b[q] = at(x-1), at(x-1)
			default:
				s.a[q], s.b[q] = at(x+1), at(x+1)
			}
		}
		st = append(st, s)
	}
	return st
}

// expandCols writes one column-perforated row from its kept values through
// steps, last step first, so that kept may be the row's own first
// elements: a step reads its window before it writes, and no window reaches
// the outputs of a later step. Under tierAVX the full steps are one
// permute of the window per operand, an add, a multiply by 0.5 and a blend
// each (expandColsAVX); the loop is the other tiers, a ragged last step and
// what that is pinned to.
func expandCols(row, kept []float32, steps []colStep) {
	full := len(row) / colVec
	g := len(steps) - 1
	if gemmTier == tierAVX && full > 0 {
		if g == full { // ragged: go first, it is last
			expandStep(row[g*colVec:], kept, &steps[g])
		}
		kept = kept[:steps[full-1].w+colVec]
		expandColsAVX(&row[:full*colVec][0], &kept[0], &steps[0], full)
		return
	}
	for ; g >= 0; g-- {
		expandStep(row[g*colVec:], kept, &steps[g])
	}
}

// expandStep is one step of expandCols, into the first min(4, len(d))
// outputs of d.
func expandStep(d, kept []float32, st *colStep) {
	win := *(*[colVec]float32)(kept[st.w:])
	for q := range min(colVec, len(d)) {
		v := win[st.a[q]]
		if st.avg[q] != 0 {
			v = 0.5 * (v + win[st.b[q]])
		}
		d[q] = v
	}
}
