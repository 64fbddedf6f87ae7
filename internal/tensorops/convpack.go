package tensorops

import (
	"math"
	"sync"

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
// The lowering. Where B[l][j] lives is worked out once per convolve call.
// The packers read one (image, group)'s planes with the padding stored as
// zeros around them (convPlan.planes), so no tap is out of bounds, and
// B[l][j] = planes[cols[j] + offs[l]] for every stride, padding,
// perforation and sampling: cols[j] = oy·sh·wp + ox·sw is the patch's first
// element, offs[l] = c·hp·wp + ky·wp + kx its l-th kept one. Panels whose
// columns are adjacent in memory are copied a run at a time, four floats per
// (l, panel) (packRun); a panel whose columns lie in two windows of four
// floats — strided or column-perforated columns, most panels that straddle
// two output rows — is one vector permute and blend per l on the AVX tier
// (packQuad); the rest gather through the same table, four columns per l.
// The last ncols mod 4 columns are a panel of their own whose other lanes
// are +0 (packTail). Every element is still accumulated in ascending-l order
// by the same kernels, a padding tap as a stored +0, so outputs are
// bit-identical to computing everything and discarding (convdiff_test.go
// pins this against the im2col reference).
//
// A kept grid narrower than a panel pair would leave each image's GEMM with
// one four-lane panel or only the tail. When the call has more than one
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

// convPlan is the lowering of one convolve call: the geometry, the tables
// that locate the input element behind B[l][j], and for direct each output
// channel's taps.
type convPlan struct {
	xd             []float32 // input in the precision the kernels consume
	ci, cig, h, w  int
	sh, sw, ph, pw int
	hp, wp         int       // plane extent as packed from: h+2·ph, w+2·pw
	wo             int       // full output width (oy·wo+ox addresses the output plane)
	kc             int       // K extent after sampling
	tab            *convTabs // pooled backing of the tables
	oy, ox         []int32   // kept output rows / columns, ascending
	offs           []int32   // kc ascending plane offsets, sampled-out positions absent
	perf           *perfSpec // nil when every output is computed
	// imgs images share one GEMM N (1 unless a kept grid is narrower than
	// a panel pair); per is one image's kept outputs, pstride the distance
	// between consecutive images' planes as planes returns them.
	imgs, per, pstride int
	cols               []int32    // cols[j]: plane offset of packed column j's patch, j < imgs·per
	steps              []fillStep // one per output of a plane, when fillSteps fills it
	colSteps           []colStep  // a row's, when fillCols fills it
	// span: packed columns [i·span, (i+1)·span) are adjacent in the planes —
	// a kept row at unit stride with every column kept, all of ncols when
	// the rows abut as well (k×1 filters); 0 when no two columns are.
	span int
	// taps[tapAt[c]:tapAt[c+1]] are output channel c's terms for direct
	// (lowerTaps); empty when the blocked kernel runs.
	taps  []convTap
	tapAt []int32
}

// convTap is one term of a small-group output: the plane offset of its
// input element from the patch's first, and the weight that multiplies it.
// window_avx_amd64.s reads both through go_asm.h.
type convTap struct {
	off int32
	w   float32
}

// convTabs is the pooled backing of a plan's tables.
type convTabs struct {
	idx      []int32 // oy, ox, offs and cols
	taps     []convTap
	at       []int32
	steps    []fillStep
	colSteps []colStep
}

// tabPool recycles plan tables; convolve puts a plan's back when it returns.
var tabPool = sync.Pool{New: func() any { return new(convTabs) }}

// newConvPlan lowers one call over n images whose groups have cog output
// channels each.
func newConvPlan(xd []float32, n, ci, cig, cog, h, w, kh, kw, ho, wo int, p ConvParams, perf *perfSpec, samp sampSpec) *convPlan {
	pl := &convPlan{
		xd: xd, ci: ci, cig: cig, h: h, w: w,
		sh: p.StrideH, sw: p.StrideW, ph: p.PadH, pw: p.PadW,
		hp: h + 2*p.PadH, wp: w + 2*p.PadW,
		wo: wo, kc: samp.keptK(cig * kh * kw),
		perf: perf, imgs: 1,
		tab: tabPool.Get().(*convTabs),
	}
	psize := cig * pl.hp * pl.wp // one (image, group)'s planes
	if psize > math.MaxInt32 {
		panicShape("Conv2D", "one group's padded input (%d×%d×%d) is beyond int32 offsets", cig, pl.hp, pl.wp)
	}
	pl.pstride = ci * h * w
	if pl.ph|pl.pw != 0 {
		pl.pstride = psize
	}
	tab := pl.tab.idx[:0]
	if need := ho + wo + pl.kc + ho*wo; cap(tab) < need {
		tab = make([]int32, 0, need)
	}
	keep := func(n int, perforated bool) []int32 {
		start := len(tab)
		for i := 0; i < n; i++ {
			if !perforated || !perf.skips(i) {
				tab = append(tab, int32(i))
			}
		}
		return tab[start:len(tab):len(tab)]
	}
	pl.oy = keep(ho, perf != nil && perf.dir == PerfRows)
	pl.ox = keep(wo, perf != nil && perf.dir == PerfCols)
	pl.per = len(pl.oy) * len(pl.ox)
	if cog >= gemmMR && n > 1 && pl.per < 2*gemmNR && (n-1)*pl.pstride <= math.MaxInt32-psize {
		pl.imgs = n
	}
	cur := sampCursor{sampSpec: samp}
	for ch := 0; ch < cig; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				if !cur.drop() {
					tab = append(tab, int32((ch*pl.hp+ky)*pl.wp+kx))
				}
			}
		}
	}
	pl.offs = tab[len(tab)-pl.kc : len(tab) : len(tab)]
	start := len(tab)
	if cog >= gemmMR {
		for img := 0; img < pl.imgs; img++ {
			for _, oy := range pl.oy {
				row := img*pl.pstride + int(oy)*pl.sh*pl.wp
				for _, ox := range pl.ox {
					tab = append(tab, int32(row+int(ox)*pl.sw))
				}
			}
		}
	}
	pl.cols = tab[start:]
	pl.tab.idx = tab
	switch {
	case perf == nil:
	case pl.imgs > 1 || wo < rowVec:
		pl.steps = perf.fillTable(pl.tab.steps[:0], ho, wo, len(pl.ox))
		pl.tab.steps = pl.steps
	case perf.dir == PerfCols:
		pl.colSteps = perf.colTable(pl.tab.colSteps[:0], wo, len(pl.ox))
		pl.tab.colSteps = pl.colSteps
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

// chanBase is the offset of input channel 0 of (img, grp) in xd.
func (pl *convPlan) chanBase(img, grp int) int {
	return (img*pl.ci + grp*pl.cig) * pl.h * pl.w
}

// planes returns the cig input planes of group grp of images img… (imgs of
// them, pstride apart) as the packers address them, hp × wp each: the input
// itself when nothing is padded, otherwise pad (imgs·cig·hp·wp floats, its
// borders zeroed once by zeroBorders) with the planes copied inside them.
func (pl *convPlan) planes(pad []float32, img, grp int) []float32 {
	h, w, wp := pl.h, pl.w, pl.wp
	base := pl.chanBase(img, grp)
	if pad == nil {
		return pl.xd[base : base+(pl.imgs-1)*pl.pstride+pl.cig*h*w]
	}
	for i := 0; i < pl.imgs; i++ {
		src := pl.xd[base+i*pl.ci*h*w : base+i*pl.ci*h*w+pl.cig*h*w]
		dst := pad[i*pl.pstride:]
		for ch := 0; ch < pl.cig; ch++ {
			for y := 0; y < h; y++ {
				d := (ch*pl.hp+pl.ph+y)*wp + pl.pw
				copy(dst[d:d+w], src[(ch*h+y)*w:])
			}
		}
	}
	return pad
}

// zeroBorders stores +0 around each of pad's planes. planes never
// writes there, so a worker does it once for all the (image, group)s it
// pads into the same buffer.
func (pl *convPlan) zeroBorders(pad []float32) {
	h, w, ph, pw, wp := pl.h, pl.w, pl.ph, pl.pw, pl.wp
	for d := 0; d < len(pad); d += pl.hp * wp {
		clear(pad[d : d+ph*wp])
		for y := ph; y < ph+h; y++ {
			row := pad[d+y*wp : d+(y+1)*wp]
			clear(row[:pw])
			clear(row[pw+w:])
		}
		clear(pad[d+(ph+h)*wp : d+pl.hp*wp])
	}
}

// packPanels writes panels [plo,phi) of the patch matrix over planes into
// dst in packRange layout, dst[((jp-plo)*kc+l)*gemmNR+j] = B[l][jp*gemmNR+j].
// Panels inside one span of adjacent columns are packed a run at a time,
// the others one by one through packQuad.
func (pl *convPlan) packPanels(dst, planes []float32, plo, phi int) {
	psz := pl.kc * gemmNR
	for jp := plo; jp < phi; {
		j := jp * gemmNR
		d := dst[(jp-plo)*psz:]
		run := 0
		if pl.span > 0 {
			run = min((pl.span-j%pl.span)/gemmNR, phi-jp)
		}
		if run > 0 {
			packRun(d, planes[pl.cols[j]:], pl.offs, run)
		} else {
			packQuad(d, planes, pl.offs, (*[gemmNR]int32)(pl.cols[j:]))
			run = 1
		}
		jp += run
	}
}

// packRun packs `run` panels whose 4·run columns are adjacent in src, the
// first at src[0]: dst[(p·kc+l)·4 : +4] = src[offs[l]+4p : +4], kc =
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

// packQuad packs one panel whose columns start at src[b[0]] … src[b[3]],
// ascending: dst[l·4+q] = src[b[q]+offs[l]]. Under tierAVX, when every
// column lies in the four floats from b[0] or the four up to b[3], each l is
// two four-float loads, a permute of each and a blend (packQuadAVX); the
// gather below is the other tiers, the other panels and what that is pinned
// to.
func packQuad(dst, src []float32, offs []int32, b *[gemmNR]int32) {
	kc := len(offs)
	dst = dst[:kc*gemmNR]
	if gemmTier == tierAVX {
		if ctrl, ok := quadWindows(b); ok {
			src = src[:int(b[3])+int(offs[kc-1])+1]
			packQuadAVX(&dst[0], &src[b[0]], &src[b[3]-3], &offs[0], kc, &ctrl)
			return
		}
	}
	s0, s1, s2, s3 := src[b[0]:], src[b[1]:], src[b[2]:], src[b[3]:]
	for l, o := range offs {
		d := (*[gemmNR]float32)(dst[l*gemmNR:])
		d[0], d[1], d[2], d[3] = s0[o], s1[o], s2[o], s3[o]
	}
}

// quadWindows is packQuadAVX's lane control for columns b: lane q takes
// element ctrl[q]&3 of the window at b[0], or of the window at b[3]−3 when
// its sign bit is set. ok is false when a column lies in neither.
func quadWindows(b *[gemmNR]int32) (ctrl [gemmNR]int32, ok bool) {
	for q, c := range b {
		switch {
		case c-b[0] < gemmNR:
			ctrl[q] = c - b[0]
		case b[3]-c < gemmNR:
			ctrl[q] = c - (b[3] - 3) | math.MinInt32
		default:
			return ctrl, false
		}
	}
	return ctrl, true
}

// packTail packs the last t < gemmNR packed columns, from j, into one panel
// whose other lanes are +0, for the tile to multiply like any other.
func (pl *convPlan) packTail(dst, planes []float32, j, t int) {
	dst = dst[:pl.kc*gemmNR]
	clear(dst)
	for q := 0; q < t; q++ {
		s := planes[pl.cols[j+q]:]
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
// never less than one pair. The AVX kernel takes panels two at a time and an
// odd one left over runs four lanes wide at half that rate — with
// kc = 576 or 1152 (7 and 3 to the budget) that was every seventh or third
// panel, and past kc = 2048 (one to the budget) every panel.
func panelBlock(kc int) int {
	return max(packBlockFloats/(kc*gemmNR)&^1, 2)
}

// blocked computes c = a · B for one (image, group), or for all the images
// that share N: a is the (m × kc) weight block with m ≥ gemmMR, B the patch
// matrix over planes, c the zeroed (m × ncols) result whose rows lie ldc
// apart. One dispatch over panel ranges replaces pack-barrier-multiply: each
// worker packs a block of its panels, multiplies all of A against it and
// applies ep to every finished row segment (C row i is output channel
// chan0+i). The unit past the last full panel is the ncols mod gemmNR tail.
// Ranges are cut between panel pairs, and blocks inside a range are even
// (panelBlock), so only the last pair of the call can be a single panel for
// the half-rate four-lane step.
func (pl *convPlan) blocked(a, planes, c []float32, m, ldc int, ep *rowEpi, chan0 int) {
	units := (pl.ncols() + gemmNR - 1) / gemmNR
	if parallel.Serial() {
		pl.blockedRange(a, planes, c, m, ldc, ep, chan0, 0, units)
		return
	}
	parallel.ForChunked((units+1)/2, func(lo, hi int) {
		pl.blockedRange(a, planes, c, m, ldc, ep, chan0, 2*lo, min(2*hi, units))
	})
}

// blockedRange is one worker's share of blocked: units [lo,hi), lo even.
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
		// scratch, from which its real columns are copied: the sum starts
		// at +0 and is never −0, so the copy is what adding it to the
		// zeroed C would store.
		j0, t := np*gemmNR, n-np*gemmNR
		panel := buf[:psz]
		pl.packTail(panel, planes, j0, t)
		ct := tensor.Scratch(m * gemmNR)
		clear(ct)
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

// lowerTaps builds direct's table from wd, the co × kc weights in the
// precision the kernels consume: each output channel's kept filter
// positions whose weight is not zero, in ascending l, as (offs[l], weight).
// A zero weight's term is left out, as the reference GEMM skips it.
func (pl *convPlan) lowerTaps(wd []float32, co int) {
	taps, at := pl.tab.taps[:0], pl.tab.at[:0]
	if cap(taps) < co*pl.kc {
		taps = make([]convTap, 0, co*pl.kc)
	}
	if cap(at) < co+1 {
		at = make([]int32, 0, co+1)
	}
	for c := 0; c < co; c++ {
		at = append(at, int32(len(taps)))
		for l, w := range wd[c*pl.kc : (c+1)*pl.kc] {
			if w != 0 {
				taps = append(taps, convTap{pl.offs[l], w})
			}
		}
	}
	pl.taps, pl.tapAt = taps, append(at, int32(len(taps)))
	pl.tab.taps, pl.tab.at = pl.taps, pl.tapAt
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
func (pl *convPlan) direct(planes, out []float32, m int, ep *rowEpi, chan0 int) {
	how, wo, nx, sw, srcRow := len(out)/m, pl.wo, len(pl.ox), pl.sw, pl.sh*pl.wp
	var flat [64]float32
	nf := (len(pl.oy)-1)*pl.wp + wo
	joined := gemmTier == tierAVX && wo < 4 && nf >= 4 && nf <= len(flat) &&
		pl.sh == sw && sw <= 2 && len(pl.oy)*wo == how && len(pl.ox) == wo
	for i := 0; i < m; i++ {
		plane := out[i*how : (i+1)*how]
		taps := pl.taps[pl.tapAt[chan0+i]:pl.tapAt[chan0+i+1]]
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
