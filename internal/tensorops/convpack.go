package tensorops

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Implicit im2col. A convolution is the GEMM  out = W · B  where B is the
// virtual (kvol × ho·wo) patch matrix B[(c,ky,kx)][(oy,ox)] =
// x[c][oy·sh−ph+ky][ox·sw−pw+kx] (zero outside the input). The engine never
// materialises B: packPanels writes the blocked kernel's panel layout
// straight from the NCHW input, and the approximations shrink the matrix
// being packed rather than the work done on it afterwards —
//
//   - perforation keeps a subset of output rows or columns, so B loses
//     columns (the GEMM's N): the kept outputs form a rows × cols grid and
//     a packed column j stands for output (oy[j / len(ox)], ox[j % len(ox)]);
//   - filter sampling drops every stride-th flattened filter position, so
//     B loses rows (the GEMM's K): the packer never emits them and the
//     weight operand is the matching K-compacted block (compactSampledFilter).
//
// Each surviving element is accumulated in the same ascending-l order by
// the same kernels as before, so outputs are bit-identical to computing
// everything and discarding (the differential tests pin this against the
// retained im2col reference).

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

// convPlan is the geometry of one convolve call: what the packer and the
// in-place small-m kernel need to find the input element behind B[l][j].
type convPlan struct {
	xd             []float32 // input in the precision the kernels consume
	ci, cig, h, w  int
	kh, kw         int
	sh, sw, ph, pw int
	wo             int // full output width (oy·wo+ox addresses the output plane)
	samp           sampSpec
	kc             int   // K extent after sampling
	oy, ox         []int // kept output rows / columns, ascending
	ix0            []int // ox[c]*sw-pw: the input column under filter column 0 of kept column c
}

// newConvPlan builds the plan, including the kept-output tables (one
// allocation of a few dozen entries).
func newConvPlan(xd []float32, ci, cig, h, w, kh, kw, ho, wo int, p ConvParams, perf *perfSpec, samp sampSpec) *convPlan {
	pl := &convPlan{
		xd: xd, ci: ci, cig: cig, h: h, w: w, kh: kh, kw: kw,
		sh: p.StrideH, sw: p.StrideW, ph: p.PadH, pw: p.PadW,
		wo: wo, samp: samp, kc: samp.keptK(cig * kh * kw),
	}
	tab := make([]int, 0, ho+2*wo)
	keep := func(n int, perforated bool) []int {
		start := len(tab)
		for i := 0; i < n; i++ {
			if !perforated || !perf.skips(i) {
				tab = append(tab, i)
			}
		}
		return tab[start:len(tab):len(tab)]
	}
	pl.oy = keep(ho, perf != nil && perf.dir == PerfRows)
	pl.ox = keep(wo, perf != nil && perf.dir == PerfCols)
	pl.ix0 = tab[len(tab) : len(tab)+len(pl.ox)]
	for c, ox := range pl.ox {
		pl.ix0[c] = ox*pl.sw - pl.pw
	}
	return pl
}

// ncols is the N extent of the packed matrix: the kept output positions.
func (pl *convPlan) ncols() int { return len(pl.oy) * len(pl.ox) }

// chanBase is the offset of input channel 0 of (img, grp) in xd.
func (pl *convPlan) chanBase(img, grp int) int {
	return (img*pl.ci + grp*pl.cig) * pl.h * pl.w
}

// packPanels writes panels [plo,phi) of (img, grp)'s patch matrix into dst
// in packRange layout, dst[((jp-plo)*kc+l)*gemmNR+j] = B[l][jp*gemmNR+j],
// with sampled-out l never emitted. Panels that lie inside one output row
// are packed a row's run at a time (packRowRun); a panel that straddles
// two output rows goes element by element.
func (pl *convPlan) packPanels(dst []float32, img, grp, plo, phi int) {
	base := pl.chanBase(img, grp)
	nx := len(pl.ox)
	psz := pl.kc * gemmNR
	r, c := plo*gemmNR/nx, plo*gemmNR%nx
	for jp := plo; jp < phi; {
		run := 1
		d := dst[(jp-plo)*psz:]
		if c+gemmNR <= nx {
			if run = (nx - c) / gemmNR; run > phi-jp {
				run = phi - jp
			}
			pl.packRowRun(d, run, base, pl.oy[r]*pl.sh-pl.ph, c)
		} else {
			pl.packColumns(d, base, r, c, gemmNR, gemmNR, 1)
		}
		jp += run
		for c += run * gemmNR; c >= nx; c -= nx {
			r++
		}
	}
}

// packTail writes the ncols mod gemmNR columns past the last full panel
// into dst in prepacked.tail layout (column-major, dst[j*kc+l]).
func (pl *convPlan) packTail(dst []float32, img, grp int) {
	n := pl.ncols()
	j0 := n / gemmNR * gemmNR
	nx := len(pl.ox)
	pl.packColumns(dst, pl.chanBase(img, grp), j0/nx, j0%nx, n-j0, 1, pl.kc)
}

// packRowRun packs `run` consecutive panels of one output row, starting at
// kept column c: their patches all begin at input row iy0. The filter walk
// is the outer loop, so the input row and the sampling decision are found
// once per filter element; inside, a panel whose first and last inputs are
// in bounds (kept columns ascend, so all four are) moves them without
// further tests — as one 16-byte copy when they are adjacent — and a
// border panel tests each.
func (pl *convPlan) packRowRun(dst []float32, run, base, iy0, c int) {
	xd, h, w := pl.xd, pl.h, pl.w
	psz := pl.kc * gemmNR
	ix0 := pl.ix0[c : c+run*gemmNR]
	cur := sampCursor{sampSpec: pl.samp}
	d := 0
	for ch := 0; ch < pl.cig; ch++ {
		cb := base + ch*h*w
		for ky := 0; ky < pl.kh; ky++ {
			iy := iy0 + ky
			var row []float32
			if uint(iy) < uint(h) {
				row = xd[cb+iy*w : cb+(iy+1)*w]
			}
			for kx := 0; kx < pl.kw; kx++ {
				if cur.drop() {
					continue
				}
				o := d
				for p := 0; p < len(ix0); p += gemmNR {
					q := dst[o : o+gemmNR : o+gemmNR]
					o += psz
					x0, x3 := ix0[p]+kx, ix0[p+3]+kx
					switch {
					case row == nil:
						q[0], q[1], q[2], q[3] = 0, 0, 0, 0
					case x0 < 0 || x3 >= w:
						for j := range q {
							if x := ix0[p+j] + kx; uint(x) < uint(w) {
								q[j] = row[x]
							} else {
								q[j] = 0
							}
						}
					case x3-x0 == gemmNR-1:
						*(*[gemmNR]float32)(q) = *(*[gemmNR]float32)(row[x0:])
					default:
						q[0], q[1], q[2], q[3] = row[x0], row[ix0[p+1]+kx], row[ix0[p+2]+kx], row[x3]
					}
				}
				d += gemmNR
			}
		}
	}
}

// packColumns is the general packer: cnt (≤ gemmNR) consecutive packed
// columns starting at kept-grid position (r, c), each located on its own,
// written to dst[l*lstride+j*jstride].
func (pl *convPlan) packColumns(dst []float32, base, r, c, cnt, lstride, jstride int) {
	var iy0, ix0 [gemmNR]int
	for j := 0; j < cnt; j++ {
		iy0[j] = pl.oy[r]*pl.sh - pl.ph
		ix0[j] = pl.ix0[c]
		if c++; c == len(pl.ox) {
			c = 0
			r++
		}
	}
	xd, h, w := pl.xd, pl.h, pl.w
	cur := sampCursor{sampSpec: pl.samp}
	d := 0
	for ch := 0; ch < pl.cig; ch++ {
		cb := base + ch*h*w
		for ky := 0; ky < pl.kh; ky++ {
			for kx := 0; kx < pl.kw; kx++ {
				if cur.drop() {
					continue
				}
				for j := 0; j < cnt; j++ {
					var v float32
					if y, x := iy0[j]+ky, ix0[j]+kx; uint(y) < uint(h) && uint(x) < uint(w) {
						v = xd[cb+y*w+x]
					}
					dst[d+j*jstride] = v
				}
				d += lstride
			}
		}
	}
}

// scatter copies a compact (m × ncols) product to the kept positions of the
// full (m × how) output block.
func (pl *convPlan) scatter(out, compact []float32, m int) {
	nx, n, how := len(pl.ox), pl.ncols(), len(out)/m
	for i := 0; i < m; i++ {
		src, dst := compact[i*n:(i+1)*n], out[i*how:(i+1)*how]
		for r, oy := range pl.oy {
			srow, drow := src[r*nx:(r+1)*nx], dst[oy*pl.wo:(oy+1)*pl.wo]
			if nx == pl.wo {
				copy(drow, srow)
				continue
			}
			for c, ox := range pl.ox {
				drow[ox] = srow[c]
			}
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
// odd one left over runs through the 4×4 tile at half its rate — with
// kc = 576 or 1152 (7 and 3 to the budget) that was every seventh or third
// panel, and past kc = 2048 (one to the budget) every panel.
func panelBlock(kc int) int {
	return max(packBlockFloats/(kc*gemmNR)&^1, 2)
}

// blocked computes c = a · B for one (img, grp): a is the (m × kc) weight
// block with m ≥ gemmMR, B the patch matrix, c the zeroed (m × ncols)
// result. One dispatch over panel ranges replaces pack-barrier-multiply:
// each worker packs a block of its panels, multiplies all of A against it
// and applies ep to every finished row segment (C row i is output channel
// chan0+i). The unit past the last full panel is the ncols mod gemmNR tail.
func (pl *convPlan) blocked(a, c []float32, m, img, grp int, ep *rowEpi, chan0 int) {
	units := (pl.ncols() + gemmNR - 1) / gemmNR
	if parallel.Serial() {
		pl.blockedRange(a, c, m, img, grp, ep, chan0, 0, units)
		return
	}
	parallel.ForChunked(units, func(lo, hi int) {
		pl.blockedRange(a, c, m, img, grp, ep, chan0, lo, hi)
	})
}

// blockedRange is one worker's share of blocked: units [lo,hi).
func (pl *convPlan) blockedRange(a, c []float32, m, img, grp int, ep *rowEpi, chan0, lo, hi int) {
	n, kc := pl.ncols(), pl.kc
	np := n / gemmNR
	psz := kc * gemmNR
	blk := min(panelBlock(kc), hi-lo)
	buf := tensor.Scratch(blk * psz) // ≥ one panel, which also holds the tail
	phi := hi
	if phi > np {
		phi = np
	}
	for b0 := lo; b0 < phi; b0 += blk {
		b1 := b0 + blk
		if b1 > phi {
			b1 = phi
		}
		panels := buf[:(b1-b0)*psz]
		pl.packPanels(panels, img, grp, b0, b1)
		for i0 := 0; i0 < m; i0 += gemmMR {
			rows := m - i0
			if rows > gemmMR {
				rows = gemmMR
			}
			gemmRowBlock(a, c, panels, i0, rows, kc, n, b0*gemmNR, b1-b0)
		}
		for i := 0; i < m; i++ {
			ep.apply(c[i*n+b0*gemmNR:i*n+b1*gemmNR], chan0+i)
		}
	}
	if hi > np {
		tail := buf[:(n-np*gemmNR)*kc]
		pl.packTail(tail, img, grp)
		for i := 0; i < m; i++ {
			crow := c[i*n : (i+1)*n]
			gemmTailRowPre(a[i*kc:(i+1)*kc], tail, crow, n, np*gemmNR)
			ep.apply(crow[np*gemmNR:], chan0+i)
		}
	}
	tensor.Release(buf)
}

// direct computes the m < gemmMR output channels of one (img, grp) — the
// depthwise shape, where packing B would cost as much as the multiply —
// by streaming input rows in place: out[i][oy][ox] += a[i][l]·x[…] for
// each surviving l in ascending order, the accumulation order of the
// saxpy kernel it replaces. Padding positions are never visited (their
// ±0 addends left a +0-initialised accumulator unchanged) and neither
// are perforated outputs. out is the zeroed full (m × ho·wo) block.
func (pl *convPlan) direct(a, out []float32, m, img, grp int, ep *rowEpi, chan0 int) {
	base := pl.chanBase(img, grp)
	xd, h, w, wo, how := pl.xd, pl.h, pl.w, pl.wo, len(out)/m
	for i := 0; i < m; i++ {
		arow := a[i*pl.kc : (i+1)*pl.kc]
		crow := out[i*how : (i+1)*how]
		cur := sampCursor{sampSpec: pl.samp}
		ai := 0
		for ch := 0; ch < pl.cig; ch++ {
			cb := base + ch*h*w
			for ky := 0; ky < pl.kh; ky++ {
				for kx := 0; kx < pl.kw; kx++ {
					if cur.drop() {
						continue
					}
					av := arow[ai]
					ai++
					// sparsity fast path: exactly-zero weights contribute nothing
					if av == 0 {
						continue
					}
					// With every column kept, output columns [lo,hi) are the
					// ones whose input column ox*sw+off lies inside the row.
					off, sw := kx-pl.pw, pl.sw
					lo, hi := 0, 0
					if off < 0 {
						lo = (sw - 1 - off) / sw
					}
					if w > off {
						hi = (w-1-off)/sw + 1
					}
					if hi > wo {
						hi = wo
					}
					for _, oy := range pl.oy {
						iy := oy*pl.sh - pl.ph + ky
						if uint(iy) >= uint(h) {
							continue
						}
						src := xd[cb+iy*w : cb+(iy+1)*w]
						dst := crow[oy*wo : (oy+1)*wo]
						switch {
						case len(pl.ox) != wo:
							for c, ox := range pl.ox {
								if ix := pl.ix0[c] + kx; uint(ix) < uint(w) {
									dst[ox] += av * src[ix]
								}
							}
						case lo >= hi:
						case sw == 1:
							axpy(dst[lo:hi], src[lo+off:], av)
						default:
							for ox := lo; ox < hi; ox++ {
								dst[ox] += av * src[ox*sw+off]
							}
						}
					}
				}
			}
		}
		ep.apply(crow, chan0+i)
	}
}
