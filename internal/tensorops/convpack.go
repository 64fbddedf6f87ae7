package tensorops

import (
	"math"
	"unsafe"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Implicit im2col. A convolution is the GEMM  out = W · B  where B is the
// virtual (kvol × ho·wo) patch matrix B[(c,ky,kx)][(oy,ox)] =
// x[c][oy·sh−ph+ky][ox·sw−pw+kx] (zero outside the input). The engine never
// materialises B, and the approximations shrink the matrix being packed
// rather than the work done on it afterwards: perforation keeps a subset of
// output rows or columns, so B loses columns (the GEMM's N) — the kept
// outputs form a rows × cols grid and packed column j stands for output
// (oy[j / len(ox)], ox[j % len(ox)]); filter sampling drops every stride-th
// flattened filter position, so B loses rows (the GEMM's K) — the offset
// table has no entry for them and the weight operand is the matching
// K-compacted block (compactSampledFilter).
//
// The lowering. Where B[l][j] lives is worked out once per layer, knob and
// input extent (lowerConv), and kept on the layer's weight. The packers
// read one (image, group)'s planes with the padding stored as zeros around
// them (convPlan.planes), so no tap is out of bounds, and B[l][j] =
// planes[col(j) + offs[l]] for every stride, padding, perforation and
// sampling: col(j) = oy·sh·wp + ox·sw is the patch's first element, walked
// column by column from the kept rows and columns (colCursor), offs[l] =
// c·hp·wp + ky·wp + kx its l-th kept one. Panels whose
// columns are adjacent in memory are copied a run at a time, one eight-float
// row per (l, panel) (packRun); a panel each of whose four-column halves
// lies in two windows of four floats — strided or column-perforated columns,
// most panels that straddle two output rows — is four window loads, two
// vector permutes and a blend per l on the AVX tier (packQuad); the rest
// gather through the same offsets, eight columns per l. The last
// ncols mod 8 columns are a panel of their own whose other lanes are +0
// (packTail). Every element is still accumulated in ascending-l order
// by the same kernels, a padding tap as a stored +0, so outputs are
// bit-identical to computing everything and discarding (convdiff_test.go
// pins this against the im2col reference).
//
// A kept grid narrower than a panel would leave each image's GEMM with only
// the tail. When the call has more than one
// image, its images then share one N instead: column j is image j / per's
// output j mod per, the planes of consecutive images lie pstride apart, and
// the product is one (m × images·per) block whose rows are filled out to
// each image's planes (convolve).

// sampSpec describes filter sampling: flattened filter position l is
// dropped when l%stride == offset. The zero value means no sampling.
type sampSpec struct{ stride, offset int }

// keptK returns how many of kvol flattened filter positions survive.
func (s sampSpec) keptK(kvol int) int {
	if s.stride == 0 || kvol <= s.offset {
		return kvol
	}
	return kvol - (kvol-s.offset+s.stride-1)/s.stride
}

// sampCursor walks l = 0,1,2,… and reports which positions sampling drops
// without a division per element.
type sampCursor struct {
	sampSpec
	lm int // l mod stride
}

func (s *sampCursor) drop() bool {
	if s.stride == 0 {
		return false
	}
	d := s.lm == s.offset
	if s.lm++; s.lm == s.stride {
		s.lm = 0
	}
	return d
}

// convPlan is the lowering of one convolution: the geometry and the tables
// that locate the input element behind B[l][j]. It depends only on the
// layer's shape, its knob and the input's dims, never on values, so it is
// built once and kept on the weight (lowerConv); it is read-only
// afterwards, and convolve binds the input to it per call.
type convPlan struct {
	ci, cig, h, w  int
	sh, sw, ph, pw int
	hp, wp         int       // plane extent as packed from: h+2·ph, w+2·pw
	wo             int       // full output width (oy·wo+ox addresses the output plane)
	kc             int       // K extent after sampling
	oy, ox         []int32   // kept output rows / columns, ascending
	offs           []int32   // kc ascending plane offsets, sampled-out positions absent
	perf           *perfSpec // nil when every output is computed
	// imgs images share one GEMM N (1 unless a kept grid is narrower than
	// a panel); per is one image's kept outputs, pstride the distance
	// between consecutive images' planes as planes returns them.
	imgs, per, pstride int
	steps              []fillStep // one per output of a plane, when fillSteps fills it
	colSteps           []colStep  // a row's, when fillCols fills it
	// span: packed columns [i·span, (i+1)·span) are adjacent in the planes —
	// a kept row at unit stride with every column kept, all of ncols when
	// the rows abut as well (k×1 filters); 0 when no two columns are.
	span int
}

// convTap is one term of a small-group output: the plane offset of its
// input element from the patch's first, and the weight that multiplies it.
// window_avx_amd64.s reads both through go_asm.h.
type convTap struct {
	off int32
	w   float32
}

// convTaps is direct's table: taps[at[c]:at[c+1]] are output channel c's
// terms. Unlike the plan it depends on the weight's values, so it is kept
// in the weight's derived set under its precision and sampling, and dropped
// with the rest when the weight is rewritten (InvalidateCache).
type convTaps struct {
	taps []convTap
	at   []int32
}

// The lowering's inputs besides the weight's own shape, packed into a
// tensor.DerivedKey: P0 the input's spatial extent, P1 the images that
// share N (0 when the tables are per image, so every batch size shares
// them) and the groups, P2 strides and padding, P3 the knob and, for taps,
// the precision. ok is false for a geometry the packing cannot hold; the
// caller then lowers without keeping.
func convKey(kind uint8, h, w, shared int, p ConvParams, perf *perfSpec, samp sampSpec, prec Precision) (key tensor.DerivedKey, ok bool) {
	const f16, f31 = 1<<16 - 1, math.MaxInt32
	if h > f31 || w > f31 || shared > f31 || p.Groups > f31 ||
		p.StrideH > f16 || p.StrideW > f16 || p.PadH > f16 || p.PadW > f16 {
		return key, false
	}
	knob := samp.stride<<4 | samp.offset | int(prec)<<8
	if perf != nil {
		knob |= int(perf.dir)<<12 | perf.stride<<16 | perf.offset<<20
	}
	return tensor.DerivedKey{
		Kind: kind,
		P0:   h<<32 | w,
		P1:   shared<<32 | p.Groups,
		P2:   p.StrideH<<48 | p.StrideW<<32 | p.PadH<<16 | p.PadW,
		P3:   knob,
	}, true
}

// lowerConv returns the plan of a call over n images of ci × h × w whose
// weight wt is (co × cig × kh × kw) in cog-channel groups, kept on wt when wt
// is marked: built on first use, then shared by every later call of the
// same geometry and knob, at any batch size whose images do not share N.
func lowerConv(wt *tensor.Tensor, n, ci, h, w, ho, wo int, p ConvParams, perf *perfSpec, samp sampSpec) *convPlan {
	co, cig, kh, kw := wt.Dim(0), wt.Dim(1), wt.Dim(2), wt.Dim(3)
	cog := co / p.Groups
	// The offsets depend on the sampling and the padded extent only, so
	// every perforation and batch size of the layer shares one table.
	okey, ok := convKey(packOffs, h, w, 0, p, nil, samp, FP32)
	offs := keptOn(wt, okey, ok, func() ([]int32, int64) {
		o := convOffsets(cig, kh, kw, h+2*p.PadH, w+2*p.PadW, samp)
		return o, int64(4 * len(o))
	})
	shared := 0
	if kept := keptAlong(ho, perf, PerfRows) * keptAlong(wo, perf, PerfCols); cog >= gemmMR && n > 1 && kept < gemmNR {
		shared = n // newConvPlan may still find the images too far apart for int32
	}
	key, ok := convKey(packPlan, h, w, shared, p, perf, samp, FP32)
	return keptOn(wt, key, ok, func() (*convPlan, int64) {
		pl := newConvPlan(offs, max(shared, 1), ci, cig, cog, h, w, ho, wo, p, perf)
		return pl, pl.bytes()
	})
}

// keptOn returns what t keeps under key, built on first use. When t is not
// marked, or ok says the key could not be formed, every call builds afresh.
// build must not derive from t itself.
func keptOn[T any](t *tensor.Tensor, key tensor.DerivedKey, ok bool, build func() (T, int64)) T {
	if ok {
		if v, marked := t.Derive(key, func() (any, int64) { return build() }); marked {
			return v.(T)
		}
	}
	v, _ := build()
	return v
}

// keptAlong is how many of n outputs along one axis perf keeps when it
// perforates dir.
func keptAlong(n int, perf *perfSpec, dir PerfDirection) int {
	if perf == nil || perf.dir != dir {
		return n
	}
	return sampSpec{perf.stride, perf.offset}.keptK(n)
}

// bytes is what the plan's own tables hold (the offsets are kept apart).
func (pl *convPlan) bytes() int64 {
	return int64(4*(len(pl.oy)+len(pl.ox)) +
		8*len(pl.steps) + int(unsafe.Sizeof(colStep{}))*len(pl.colSteps) + int(unsafe.Sizeof(*pl)))
}

// convOffsets returns the plane offsets of a filter's kept positions (cig ×
// kh × kw less what samp drops) over planes of extent hp × wp, ascending.
func convOffsets(cig, kh, kw, hp, wp int, samp sampSpec) []int32 {
	offs := make([]int32, 0, samp.keptK(cig*kh*kw))
	cur := sampCursor{sampSpec: samp}
	for ch := 0; ch < cig; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				if !cur.drop() {
					offs = append(offs, int32((ch*hp+ky)*wp+kx))
				}
			}
		}
	}
	return offs
}

// newConvPlan lowers a call over n images whose groups have cog output
// channels each, over the filter positions offs.
func newConvPlan(offs []int32, n, ci, cig, cog, h, w, ho, wo int, p ConvParams, perf *perfSpec) *convPlan {
	pl := &convPlan{
		ci: ci, cig: cig, h: h, w: w,
		sh: p.StrideH, sw: p.StrideW, ph: p.PadH, pw: p.PadW,
		hp: h + 2*p.PadH, wp: w + 2*p.PadW,
		wo: wo, kc: len(offs), offs: offs,
		imgs: 1,
	}
	if perf != nil {
		pc := *perf
		pl.perf = &pc
	}
	psize := cig * pl.hp * pl.wp // one (image, group)'s planes
	if psize > math.MaxInt32 {
		panicShape("Conv2D", "one group's padded input (%d×%d×%d) is beyond int32 offsets", cig, pl.hp, pl.wp)
	}
	pl.pstride = ci * h * w
	if pl.ph|pl.pw != 0 {
		pl.pstride = psize
	}
	keep := func(n int, perforated bool) []int32 {
		t := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if !perforated || !perf.skips(i) {
				t = append(t, int32(i))
			}
		}
		return t
	}
	pl.oy = keep(ho, perf != nil && perf.dir == PerfRows)
	pl.ox = keep(wo, perf != nil && perf.dir == PerfCols)
	pl.per = len(pl.oy) * len(pl.ox)
	if cog >= gemmMR && n > 1 && pl.per < gemmNR && (n-1)*pl.pstride <= math.MaxInt32-psize {
		pl.imgs = n
	}
	switch {
	case perf == nil:
	case pl.imgs > 1 || wo < rowVec:
		pl.steps = perf.fillTable(nil, ho, wo, len(pl.ox))
	case perf.dir == PerfCols:
		pl.colSteps = perf.colTable(nil, wo, len(pl.ox))
	}
	if pl.sw == 1 && len(pl.ox) == wo {
		pl.span = wo
		if pl.wp == wo && pl.sh == 1 && len(pl.oy) == ho {
			pl.span = ho * wo
		}
	}
	return pl
}

// ncols is the N extent of the packed matrix: the kept output positions of
// the images that share it.
func (pl *convPlan) ncols() int { return pl.imgs * pl.per }

// colCursor walks packed columns in order: column j is image img's kept
// output (oy[r], ox[c]), with j = img·per + r·len(ox) + c. The plans keep
// no per-column table; a cursor finds each column's patch from the kept
// rows and columns.
type colCursor struct{ img, r, c int }

// colAt is the cursor at packed column j.
func (pl *convPlan) colAt(j int) colCursor {
	nx := len(pl.ox)
	return colCursor{j / pl.per, j % pl.per / nx, j % pl.per % nx}
}

// at is the plane offset of the cursor's patch: oy·sh·wp + ox·sw in its
// image's planes, pstride apart.
func (cc *colCursor) at(pl *convPlan) int {
	return cc.img*pl.pstride + int(pl.oy[cc.r])*pl.sh*pl.wp + int(pl.ox[cc.c])*pl.sw
}

// skip moves the cursor n columns on.
func (cc *colCursor) skip(pl *convPlan, n int) {
	if cc.c += n; cc.c >= len(pl.ox) {
		cc.r += cc.c / len(pl.ox)
		cc.c %= len(pl.ox)
		if cc.r >= len(pl.oy) {
			cc.img += cc.r / len(pl.oy)
			cc.r %= len(pl.oy)
		}
	}
}

// chanBase is the offset of input channel 0 of (img, grp) in xd.
func (pl *convPlan) chanBase(img, grp int) int {
	return (img*pl.ci + grp*pl.cig) * pl.h * pl.w
}

// planes returns the cig input planes of group grp of images img… of xd
// (imgs of them, pstride apart) as the packers address them, hp × wp each:
// xd itself when nothing is padded, otherwise pad (imgs·cig·hp·wp floats)
// with the input rows copied inside. With whole set — the first (image,
// group) a worker puts into pad in this call — the +0s around them are
// written too: the top pad rows, the zeros between rows, the bottom pad
// rows. No later copy writes there, so pad needs no clearing and nothing
// is kept between calls.
func (pl *convPlan) planes(xd, pad []float32, img, grp int, whole bool) []float32 {
	h, w, wp := pl.h, pl.w, pl.wp
	base := pl.chanBase(img, grp)
	if pad == nil {
		return xd[base : base+(pl.imgs-1)*pl.pstride+pl.cig*h*w]
	}
	top, gap := pl.ph*wp+pl.pw, 2*pl.pw // zeros before row 0, and between rows
	for i := 0; i < pl.imgs; i++ {
		src := xd[base+i*pl.ci*h*w : base+i*pl.ci*h*w+pl.cig*h*w]
		dst := pad[i*pl.pstride : i*pl.pstride+pl.cig*pl.hp*wp]
		for ch := 0; ch < pl.cig; ch++ {
			d := dst[ch*pl.hp*wp : (ch+1)*pl.hp*wp]
			if whole {
				clear(d[:top])
				for at := top + w; at < top+(h-1)*wp; at += wp {
					for z := at; z < at+gap; z++ { // a call per row would cost more
						d[z] = 0
					}
				}
				clear(d[top+(h-1)*wp+w:])
			}
			for y := 0; y < h; y++ {
				copy(d[top+y*wp:top+y*wp+w], src[(ch*h+y)*w:])
			}
		}
	}
	return pad
}

// packPanels writes panels [plo,phi) of the patch matrix over planes into
// dst in packRange layout, dst[((jp-plo)*kc+l)*gemmNR+j] = B[l][jp*gemmNR+j].
// Panels inside one span of adjacent columns are packed a run at a time,
// the others one by one through packQuad.
func (pl *convPlan) packPanels(dst, planes []float32, plo, phi int) {
	psz := pl.kc * gemmNR
	cur := pl.colAt(plo * gemmNR)
	for jp := plo; jp < phi; {
		j := jp * gemmNR
		d := dst[(jp-plo)*psz:]
		run := 0
		if pl.span > 0 {
			run = min((pl.span-j%pl.span)/gemmNR, phi-jp)
		}
		if run > 0 {
			packRun(d, planes[cur.at(pl):], pl.offs, run)
			cur.skip(pl, run*gemmNR)
		} else {
			var b [gemmNR]int32
			for q := range b {
				b[q] = int32(cur.at(pl))
				cur.skip(pl, 1)
			}
			packQuad(d, planes, pl.offs, &b)
			run = 1
		}
		jp += run
	}
}

// packRun packs `run` panels whose 8·run columns are adjacent in src, the
// first at src[0]: dst[(p·kc+l)·8 : +8] = src[offs[l]+8p : +8], kc =
// len(offs); offs ascends, so its last entry bounds what is read. The AVX
// tier runs packRunAVX; the loop is the other tiers and what that is pinned to.
func packRun(dst, src []float32, offs []int32, run int) {
	kc := len(offs)
	dst = dst[:run*kc*gemmNR]
	src = src[:int(offs[kc-1])+run*gemmNR]
	if gemmTier == tierAVX {
		packRunAVX(&dst[0], &src[0], &offs[0], kc, run)
		return
	}
	for p := 0; p < run; p++ {
		d, s := dst[p*kc*gemmNR:(p+1)*kc*gemmNR], src[p*gemmNR:]
		for l, o := range offs {
			*(*[gemmNR]float32)(d[l*gemmNR:]) = *(*[gemmNR]float32)(s[o:])
		}
	}
}

// packQuad packs one panel whose columns start at src[b[0]] … src[b[7]],
// ascending: dst[l·8+q] = src[b[q]+offs[l]]. Under tierAVX, when every
// column of each four-column half lies in the four floats from the half's
// first or the four up to its last, each l is four four-float loads, two
// permutes and a blend (packQuadAVX); the gather below is the other tiers,
// the other panels and what that is pinned to.
func packQuad(dst, src []float32, offs []int32, b *[gemmNR]int32) {
	kc := len(offs)
	dst = dst[:kc*gemmNR]
	if gemmTier == tierAVX {
		if ctrl, win, ok := quadWindows(b); ok {
			src = src[:int(b[gemmNR-1])+int(offs[kc-1])+1]
			packQuadAVX(&dst[0], &src[0], &offs[0], kc, &win, &ctrl)
			return
		}
	}
	for l, o := range offs {
		d := (*[gemmNR]float32)(dst[l*gemmNR:])
		for q, c := range b {
			d[q] = src[int(c)+int(o)]
		}
	}
}

// quadWindows is packQuadAVX's operands for columns b: each half's two
// windows, win[2h] at its first column and win[2h+1] ending at its last,
// and the lane control — lane q takes element ctrl[q]&3 of its half's first
// window, or of the second when its sign bit is set. ok is false when a
// column lies in neither window of its half.
func quadWindows(b *[gemmNR]int32) (ctrl [gemmNR]int32, win [4]int32, ok bool) {
	for h := 0; h < gemmNR; h += halfNR {
		first, last := b[h], b[h+halfNR-1]-(halfNR-1)
		win[h/halfNR*2], win[h/halfNR*2+1] = first, last
		for q := h; q < h+halfNR; q++ {
			switch c := b[q]; {
			case c-first < halfNR:
				ctrl[q] = c - first
			case c >= last:
				ctrl[q] = c - last | math.MinInt32
			default:
				return ctrl, win, false
			}
		}
	}
	return ctrl, win, true
}

// packTail packs the last t < gemmNR packed columns, from j, into one panel
// whose other lanes are +0, for the tile to multiply like any other.
func (pl *convPlan) packTail(dst, planes []float32, j, t int) {
	dst = dst[:pl.kc*gemmNR]
	clear(dst)
	cur := pl.colAt(j)
	for q := 0; q < t; q++ {
		s := planes[cur.at(pl):]
		cur.skip(pl, 1)
		for l, o := range pl.offs {
			dst[l*gemmNR+q] = s[o]
		}
	}
}

// packBlockFloats bounds the packed panels a worker holds at a time: it
// packs that many floats, multiplies every row of A against them while
// they are cache-hot, and moves on, so the packed operand never exists in
// full.
const packBlockFloats = 16 << 10

// panelBlock is how many panels of K extent kc a worker packs and multiplies
// at a time: what fits packBlockFloats, rounded down to an even count and
// never less than one pair. The AVX kernel takes panels two at a time, a
// 4×16 tile, and an odd one left over runs as a 4×8 tile with half the
// accumulator chains in flight — with kc = 576 (3 panels to the budget) an
// odd block would leave every third panel to it, and past kc = 1024 (one to
// the budget) every panel.
func panelBlock(kc int) int {
	return max(packBlockFloats/(kc*gemmNR)&^1, 2)
}

// blocked computes c = a · B for one (image, group), or for all the images
// that share N: a is the (m × kc) weight block with m ≥ gemmMR, B the patch
// matrix over planes, c the (m × ncols) result whose rows lie ldc apart and
// whose every element it stores. One dispatch over panel ranges replaces pack-barrier-multiply: each
// worker packs a block of its panels, multiplies all of A against it and
// applies ep to every finished row segment (C row i is output channel
// chan0+i). The unit past the last full panel is the ncols mod gemmNR tail.
// Ranges are cut between panels and blocks inside a range are even
// (panelBlock), so only a range's last panel can be a single one for the
// 4×8 step.
func (pl *convPlan) blocked(a, planes, c []float32, m, ldc int, ep *rowEpi, chan0 int) {
	units := (pl.ncols() + gemmNR - 1) / gemmNR
	if parallel.Serial() {
		pl.blockedRange(a, planes, c, m, ldc, ep, chan0, 0, units)
		return
	}
	parallel.ForChunked(units, func(lo, hi int) {
		pl.blockedRange(a, planes, c, m, ldc, ep, chan0, lo, hi)
	})
}

// blockedRange is one worker's share of blocked: units [lo,hi).
func (pl *convPlan) blockedRange(a, planes, c []float32, m, ldc int, ep *rowEpi, chan0, lo, hi int) {
	n, kc := pl.ncols(), pl.kc
	np := n / gemmNR
	psz := kc * gemmNR
	blk := min(panelBlock(kc), hi-lo)
	buf := tensor.Scratch(blk * psz) // ≥ one panel, which also holds the tail
	for b0, phi := lo, min(hi, np); b0 < phi; b0 += blk {
		b1 := min(b0+blk, phi)
		panels := buf[:(b1-b0)*psz]
		pl.packPanels(panels, planes, b0, b1)
		for i0 := 0; i0 < m; i0 += gemmMR {
			gemmRowBlock(a, c, panels, i0, min(m-i0, gemmMR), kc, ldc, b0*gemmNR, b1-b0)
		}
		for i := 0; i < m; i++ {
			ep.apply(c[i*ldc+b0*gemmNR:i*ldc+b1*gemmNR], chan0+i)
		}
	}
	if hi > np {
		// The tail panel goes through the same kernels into rows of gemmNR
		// scratch, from which its real columns are copied.
		j0, t := np*gemmNR, n-np*gemmNR
		panel := buf[:psz]
		pl.packTail(panel, planes, j0, t)
		ct := tensor.Scratch(m * gemmNR)
		for i0 := 0; i0 < m; i0 += gemmMR {
			gemmRowBlock(a, ct, panel, i0, min(m-i0, gemmMR), kc, gemmNR, 0, 1)
		}
		for i := 0; i < m; i++ {
			crow := c[i*ldc+j0 : i*ldc+n]
			copy(crow, ct[i*gemmNR:])
			ep.apply(crow, chan0+i)
		}
		tensor.Release(&ct)
	}
	tensor.Release(&buf)
}

// lowerTaps returns direct's table for wd, the co × kc weights in the
// precision the kernels consume: each output channel's kept filter positions
// whose weight is not zero, in ascending l, as (offs[l], weight). A zero
// weight's term is left out, as the reference GEMM skips it. It is kept on
// wt, the weight as the caller passed it, under key (ok).
func (pl *convPlan) lowerTaps(wt *tensor.Tensor, key tensor.DerivedKey, ok bool, wd []float32, co int) *convTaps {
	return keptOn(wt, key, ok, func() (*convTaps, int64) {
		t := &convTaps{at: make([]int32, 0, co+1)}
		for c := 0; c < co; c++ {
			t.at = append(t.at, int32(len(t.taps)))
			for l, w := range wd[c*pl.kc : (c+1)*pl.kc] {
				if w != 0 {
					t.taps = append(t.taps, convTap{pl.offs[l], w})
				}
			}
		}
		t.at = append(t.at, int32(len(t.taps)))
		return t, int64(8*len(t.taps) + 4*len(t.at))
	})
}

// direct computes the m < gemmMR output channels chan0… of one (image,
// group) — the depthwise shape, where packing B would cost as much as the
// multiply — from the padded planes the packers read: each kept output is
// the sum from +0 of its channel's taps, w·planes[base + off] in ascending
// l, stored once into out, the full (m × ho·wo) block. A padding tap is a
// stored +0 multiplied in place, as in blocked. Under perforation the kept
// outputs are packed at the front of each plane, as blocked leaves them, for
// finish. Kept rows go to depthwiseRows a run at a time, as many as lie one
// step apart; a perforated column is a run one output wide.
//
// Rows too short for the AVX kernel (wo < 4) are joined when every output is
// kept and sh == sw: output (oy, ox) then has base sw·(oy·wp + ox), so the
// plane is one row of (ho−1)·wp + wo outputs over the planes, wp − wo of
// them junk after each row but the last. That row is summed into flat and
// the real outputs copied out.
func (pl *convPlan) direct(tp *convTaps, planes, out []float32, m int, ep *rowEpi, chan0 int) {
	how, wo, nx, sw, srcRow := len(out)/m, pl.wo, len(pl.ox), pl.sw, pl.sh*pl.wp
	var flat [64]float32
	nf := (len(pl.oy)-1)*pl.wp + wo
	joined := gemmTier == tierAVX && wo < 4 && nf >= 4 && nf <= len(flat) &&
		pl.sh == sw && sw <= 2 && len(pl.oy)*wo == how && len(pl.ox) == wo
	for i := 0; i < m; i++ {
		plane := out[i*how : (i+1)*how]
		taps := tp.taps[tp.at[chan0+i]:tp.at[chan0+i+1]]
		if joined {
			depthwiseRows(flat[:nf], planes, taps, nf, sw, 1, 0, 0)
			for oy := range len(pl.oy) {
				copy(plane[oy*wo:(oy+1)*wo], flat[oy*pl.wp:])
			}
			ep.apply(plane, chan0+i)
			continue
		}
		for r := 0; r < len(pl.oy); {
			oy, e, step := int(pl.oy[r]), r+1, 1
			if e < len(pl.oy) {
				step = int(pl.oy[e]) - oy
			}
			for e < len(pl.oy) && int(pl.oy[e]-pl.oy[e-1]) == step {
				e++
			}
			d, s := plane[r*nx:], planes[oy*srcRow:]
			if nx == wo {
				depthwiseRows(d, s, taps, wo, sw, e-r, wo, step*srcRow)
			} else {
				for c, ox := range pl.ox {
					depthwiseRows(d[c:], s[int(ox)*sw:], taps, 1, sw, e-r, nx, step*srcRow)
				}
			}
			r = e
		}
		ep.apply(plane, chan0+i)
	}
}
