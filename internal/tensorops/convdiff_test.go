package tensorops

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// The reference convolution engine, retained from before the direct packer:
// a materialised im2col column matrix multiplied by the naive gemmRef
// kernel, perforation by computing every output and interpolating over the
// skipped ones (refInterpolate, which searches for the nearest kept row or
// column on either side), filter sampling by multiplying with SampleFilter's
// zeroed weights, and the epilogue as separate whole-tensor passes. The
// engine must reproduce its output bit for bit.

// im2col unrolls the input patches of one (image, group) into cols, a
// (cig*kh*kw) × (ho*wo) column matrix. Out-of-bounds (padding) elements
// are zero.
func im2col(xd, cols []float32, img, grp, ci, cig, h, w, kh, kw, ho, wo int, p ConvParams) {
	ow := ho * wo
	for c := 0; c < cig; c++ {
		chanBase := (img*ci + grp*cig + c) * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				rowBase := ((c*kh+ky)*kw + kx) * ow
				for oy := 0; oy < ho; oy++ {
					iy := oy*p.StrideH - p.PadH + ky
					for ox := 0; ox < wo; ox++ {
						ix := ox*p.StrideW - p.PadW + kx
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = xd[chanBase+iy*w+ix]
						}
						cols[rowBase+oy*wo+ox] = v
					}
				}
			}
		}
	}
}

// refInterpolate overwrites the perforated output rows/columns with the
// nearest-neighbor average of the computed (kept) elements — Figurnov et
// al.'s definition, with the nearest kept index on each side searched for
// rather than assumed adjacent.
func refInterpolate(out *tensor.Tensor, perf *perfSpec) {
	n, co, ho, wo := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	od := out.Data()
	// nearest returns the closest kept index below and above i in [0,lim),
	// -1 where there is none.
	nearest := func(i, lim int) (lo, hi int) {
		for lo = i - 1; lo >= 0 && perf.skips(lo); lo-- {
		}
		for hi = i + 1; hi < lim && perf.skips(hi); hi++ {
		}
		if hi == lim {
			hi = -1
		}
		return lo, hi
	}
	mix := func(dst *float32, lo, hi int, at func(int) float32) {
		switch {
		case lo >= 0 && hi >= 0:
			*dst = 0.5 * (at(lo) + at(hi))
		case lo >= 0:
			*dst = at(lo)
		case hi >= 0:
			*dst = at(hi)
		default:
			*dst = 0
		}
	}
	for nc := 0; nc < n*co; nc++ {
		plane := od[nc*ho*wo : (nc+1)*ho*wo]
		for y := 0; y < ho; y++ {
			for x := 0; x < wo; x++ {
				switch {
				case perf.dir == PerfRows && perf.skips(y):
					lo, hi := nearest(y, ho)
					mix(&plane[y*wo+x], lo, hi, func(r int) float32 { return plane[r*wo+x] })
				case perf.dir == PerfCols && perf.skips(x):
					lo, hi := nearest(x, wo)
					mix(&plane[y*wo+x], lo, hi, func(c int) float32 { return plane[y*wo+c] })
				}
			}
		}
	}
}

// convKnob selects one approximation of a differential case.
type convKnob struct {
	perf *perfSpec
	samp sampSpec
}

func (k convKnob) String() string {
	switch {
	case k.perf != nil:
		return fmt.Sprintf("perf-%v-%d-%d", k.perf.dir, k.perf.stride, k.perf.offset)
	case k.samp.stride != 0:
		return fmt.Sprintf("samp-%d-%d", k.samp.stride, k.samp.offset)
	}
	return "exact"
}

// refConvolve is the reference engine described above.
func refConvolve(x, w *tensor.Tensor, p ConvParams, prec Precision, knob convKnob, ep Epilogue) *tensor.Tensor {
	return refConvolveWith(gemmRef, x, w, p, prec, knob, ep)
}

// gemmRefEvery is gemmRef multiplying every term, a zero A element
// included: the blocked kernels' rule, where 0 · ±Inf is NaN.
func gemmRefEvery(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for l, av := range a[i*k : (i+1)*k] {
			for j, bv := range b[l*n : (l+1)*n] {
				crow[j] += float32(av * bv)
			}
		}
	}
}

// refConvolveWith is refConvolve over the given reference GEMM.
func refConvolveWith(gemm func(a, b, c []float32, m, k, n int), x, w *tensor.Tensor, p ConvParams, prec Precision, knob convKnob, ep Epilogue) *tensor.Tensor {
	p = p.Norm()
	if knob.samp.stride != 0 {
		w = SampleFilter(w, knob.samp.stride, knob.samp.offset)
	}
	if prec == FP16 {
		x, w = x.CloneFP16(), w.CloneFP16()
	}
	n, ci, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	co, cig, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := p.Groups
	cog, kvol := co/g, cig*kh*kw
	ho := tensor.ConvOutDim(h, kh, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(wd, kw, p.StrideW, p.PadW)
	how := ho * wo
	out := tensor.New(n, co, ho, wo)
	cols := make([]float32, kvol*how)
	for img := 0; img < n; img++ {
		for grp := 0; grp < g; grp++ {
			im2col(x.Data(), cols, img, grp, ci, cig, h, wd, kh, kw, ho, wo, p)
			gemm(w.Data()[grp*cog*kvol:(grp+1)*cog*kvol], cols,
				out.Data()[(img*co+grp*cog)*how:(img*co+(grp+1)*cog)*how], cog, kvol, how)
		}
	}
	if knob.perf != nil {
		refInterpolate(out, knob.perf)
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return unfusedChain(out, ep, prec)
}

// engineConvolve runs the same case through the public entry points and
// requires the input, the filter and the bias to come back bit for bit as
// they went in, whichever tier ran.
func engineConvolve(t *testing.T, x, w *tensor.Tensor, p ConvParams, prec Precision, knob convKnob, ep Epilogue) *tensor.Tensor {
	t.Helper()
	operands := []*tensor.Tensor{x, w, ep.Bias}
	before := make([][]float32, len(operands))
	for i, op := range operands {
		if op != nil {
			before[i] = slices.Clone(op.Data())
		}
	}
	var out *tensor.Tensor
	switch {
	case knob.perf != nil:
		out = Conv2DPerforatedFused(x, w, p, knob.perf.dir, knob.perf.stride, knob.perf.offset, prec, ep)
	case knob.samp.stride != 0:
		out = Conv2DFilterSamplingFused(x, w, p, knob.samp.stride, knob.samp.offset, prec, ep)
	default:
		out = Conv2DFused(x, w, p, prec, ep)
	}
	for i, op := range operands {
		if op != nil {
			requireSameSlice(t, op.Data(), before[i], "%v %v: %s written", prec, knob, []string{"input", "filter", "bias"}[i])
		}
	}
	return out
}

// allConvKnobs is exact + the paper's 18 perforation + 9 sampling knobs.
func allConvKnobs() []convKnob {
	knobs := []convKnob{{}}
	for stride := 2; stride <= 4; stride++ {
		for off := 0; off < stride; off++ {
			for _, dir := range []PerfDirection{PerfRows, PerfCols} {
				knobs = append(knobs, convKnob{perf: &perfSpec{dir: dir, stride: stride, offset: off}})
			}
			knobs = append(knobs, convKnob{samp: sampSpec{stride, off}})
		}
	}
	return knobs
}

// diffEpilogues returns the epilogues a case cycles through: none, and
// bias with each activation kind that changes the arithmetic.
func diffEpilogues(bias *tensor.Tensor) []Epilogue {
	return []Epilogue{{}, {Bias: bias, Act: ActReLU}, {Bias: bias, Act: ActTanh}, {Act: ActClippedReLU, Clip: 1}}
}

// requireSameBits fails unless got and want agree in shape and in every
// float32 bit pattern.
func requireSameBits(t *testing.T, got, want *tensor.Tensor, format string, args ...any) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf(format+": shape %v, reference %v", append(args, got.Shape(), want.Shape())...)
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf(format+": out[%d] = %v (%#x), reference %v (%#x)",
				append(args, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))...)
		}
	}
}

// requireAllKnobs holds the engine to the reference on one shape under both
// precisions and every knob, the epilogue cycling through eps from rot on.
func requireAllKnobs(t *testing.T, x, wt *tensor.Tensor, p ConvParams, eps []Epilogue, rot int, label string) {
	t.Helper()
	for _, prec := range []Precision{FP32, FP16} {
		for ki, knob := range allConvKnobs() {
			ei := (rot + ki) % len(eps)
			want := refConvolve(x, wt, p, prec, knob, eps[ei])
			requireSameBits(t, engineConvolve(t, x, wt, p, prec, knob, eps[ei]), want, "%s %v %v ep=%d", label, prec, knob, ei)
		}
	}
}

// withProcs runs fn under each GOMAXPROCS setting: 1 takes the serial
// branches, more splits every dispatch into that many panel ranges (the
// worker-token pool is sized at start-up, so on a small host some of them
// run inline — the partition is what matters for bit-identity).
func withProcs(t *testing.T, procs []int, fn func(t *testing.T)) {
	for _, n := range procs {
		t.Run(fmt.Sprintf("procs%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			fn(t)
		})
	}
}

// TestConvDirectMatchesReference pins the direct-pack engine bit-identical
// to the reference over stride {1,2} × pad {0,1,2} × kernel {1,3,5} ×
// Wo mod 4 ∈ {0,1,2,3} × channel layouts (blocked with remainder rows,
// grouped, small-m grouped, depthwise) × precision × every knob, cycling
// the epilogues, plus the degenerate outputs narrower than one panel —
// once per kernel tier the CPU has.
func TestConvDirectMatchesReference(t *testing.T) {
	type layout struct{ ci, co, groups int }
	layouts := []layout{{3, 6, 1}, {4, 12, 2}, {4, 4, 2}, {4, 4, 4}}
	knobs := allConvKnobs()
	withProcs(t, []int{1, 3}, func(t *testing.T) {
		forEachTier(t, func(t *testing.T) {
			g := tensor.NewRNG(41)
			cases := 0
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					for _, k := range []int{1, 3, 5} {
						for wi := 0; wi < 4; wi++ {
							// Four input widths whose output widths are
							// consecutive, so all residues mod 4 occur.
							h, w := 6+k, 5+k+wi*stride
							for li, l := range layouts {
								p := ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: l.groups}
								x := randTensor(g, 2, l.ci, h, w)
								wt := randTensor(g, l.co, l.ci/l.groups, k, k)
								if (wi+li)%2 == 0 {
									wt.MarkCacheable() // sampled filters and FP16 weights kept on the weight
								}
								eps := diffEpilogues(randTensor(g, l.co))
								requireAllKnobs(t, x, wt, p, eps, cases, fmt.Sprintf("stride=%d pad=%d k=%d in=%dx%d layout=%+v", stride, pad, k, h, w, l))
								for _, prec := range []Precision{FP32, FP16} {
									// The cached-columns path: cold build, then hit.
									cx := x.Clone().MarkCacheable()
									want := refConvolve(x, wt, p, prec, convKnob{}, eps[1])
									for pass := 0; pass < 2; pass++ {
										requireSameBits(t, Conv2DFused(cx, wt, p, prec, eps[1]), want,
											"cacheable pass %d stride=%d pad=%d k=%d in=%dx%d layout=%+v %v", pass, stride, pad, k, h, w, l, prec)
									}
									InvalidatePacked(cx)
								}
								InvalidatePacked(wt)
								cases++
							}
						}
					}
				}
			}
			// Outputs with fewer than gemmNR positions (tail only), before and
			// after perforation removes some.
			for _, hw := range [][2]int{{3, 3}, {3, 4}, {4, 5}, {5, 3}} {
				p := ConvParams{}
				x := randTensor(g, 1, 5, hw[0], hw[1])
				wt := randTensor(g, 7, 5, 3, 3)
				for _, prec := range []Precision{FP32, FP16} {
					for _, knob := range knobs {
						want := refConvolve(x, wt, p, prec, knob, Epilogue{})
						requireSameBits(t, engineConvolve(t, x, wt, p, prec, knob, Epilogue{}), want, "tiny %v %v %v", hw, prec, knob)
					}
				}
			}
		})
	})
}

// TestConvLoweringShapes runs the shapes the lowering tells apart — on top
// of the square grid above — through every knob, both precisions and every
// tier: padding 0–3 in either axis alone and together, under 1×1, 3×3, 5×5
// and non-square filters (k×1 keeps the rows abutting, so the whole output
// is one span; 1×k does not); output widths 3, 4, 6, 7, 12 and 28 (rows of
// half a panel, panels that straddle two rows, pairs that do, runs); stride 2 in one axis or
// both (no two columns adjacent: every panel gathers); groups whose
// cog ≥ 4 takes the blocked kernel per group; and MobileNet's depthwise
// layers, which take direct.
func TestConvLoweringShapes(t *testing.T) {
	type shape struct {
		h, w, kh, kw   int
		sh, sw, ph, pw int
		ci, co, groups int
	}
	shapes := []shape{
		// output width (sw = 1): w + 2·pw − kw + 1
		{5, 3, 1, 1, 1, 1, 0, 0, 3, 5, 1},    // wo 3, flat span, in place
		{4, 4, 3, 3, 1, 1, 1, 1, 2, 4, 1},    // wo 4: a row is half a panel
		{5, 6, 3, 3, 1, 1, 1, 1, 3, 6, 1},    // wo 6: every panel straddles
		{6, 7, 5, 5, 1, 1, 2, 2, 2, 5, 1},    // wo 7
		{4, 12, 3, 3, 1, 1, 1, 1, 2, 4, 1},   // wo 12: a run of one, then a straddling panel
		{3, 28, 3, 3, 1, 1, 1, 1, 1, 4, 1},   // wo 28: runs of three
		{5, 28, 1, 1, 1, 1, 0, 0, 4, 8, 1},   // flat span of 140 columns
		{6, 6, 1, 1, 1, 1, 1, 1, 3, 4, 1},    // padded 1×1: wp ≠ wo, not flat
		{5, 5, 3, 3, 1, 1, 3, 3, 2, 4, 1},    // padding wider than the filter reaches
		{4, 6, 5, 5, 1, 1, 3, 2, 2, 4, 1},    // 5×5, unequal padding
		{6, 9, 3, 3, 1, 1, 0, 2, 2, 4, 1},    // padded columns only
		{6, 9, 3, 3, 1, 1, 2, 0, 2, 4, 1},    // padded rows only
		{7, 8, 1, 3, 1, 1, 0, 1, 3, 4, 1},    // 1×3
		{7, 8, 3, 1, 1, 1, 1, 0, 3, 4, 1},    // 3×1: rows abut, flat span under padding
		{8, 7, 5, 2, 1, 1, 2, 1, 2, 5, 1},    // 5×2
		{9, 10, 3, 3, 2, 1, 1, 1, 2, 4, 1},   // stride 2 down only: runs survive
		{9, 10, 3, 3, 1, 2, 1, 1, 2, 4, 1},   // stride 2 across only: all gather
		{9, 11, 3, 3, 2, 2, 1, 1, 3, 7, 1},   // both
		{8, 8, 1, 1, 2, 2, 0, 0, 4, 8, 1},    // strided 1×1 (resnet's shortcut)
		{6, 10, 3, 3, 1, 1, 1, 1, 4, 8, 2},   // two groups of cog 4
		{6, 6, 3, 3, 2, 2, 1, 1, 6, 15, 3},   // three groups of cog 5, strided
		{5, 12, 1, 1, 1, 1, 0, 0, 8, 16, 4},  // grouped pointwise
		{6, 8, 3, 3, 1, 1, 1, 1, 3, 8, 1},    // wo 8: a kept row is one panel
		{5, 16, 3, 3, 1, 1, 1, 1, 2, 5, 1},   // wo 16: a pair a row, a remainder row
		{3, 16, 3, 3, 1, 1, 1, 1, 230, 4, 1}, // kc 2070: blocks of one pair, a row each
		{3, 32, 3, 3, 1, 1, 1, 1, 230, 4, 1}, // wo 32, kc 2070: blocks of one pair cut rows in two
		{1, 9, 1, 3, 1, 1, 0, 1, 2, 4, 1},    // a single output row
		{9, 1, 3, 1, 1, 1, 1, 0, 2, 4, 1},    // a single output column
	}
	// MobileNet's depthwise layers — 3×3, pad 1, Groups == ci — at stride 1
	// and 2 and output widths that take the AVX kernel's four- and eight-lane
	// blocks and ragged ends, and a 2-wide plane's joined rows; odd widths
	// with two filters per channel.
	for _, wo := range []int{2, 4, 7, 8, 9, 16, 17, 32} {
		co := 3 + 3*(wo%2)
		shapes = append(shapes,
			shape{3, wo, 3, 3, 1, 1, 1, 1, 3, co, 3},
			shape{4, 2 * wo, 3, 3, 2, 2, 1, 1, 3, co, 3})
	}
	withProcs(t, []int{1, 3}, func(t *testing.T) {
		forEachTier(t, func(t *testing.T) {
			g := tensor.NewRNG(43)
			for si, sp := range shapes {
				p := ConvParams{StrideH: sp.sh, StrideW: sp.sw, PadH: sp.ph, PadW: sp.pw, Groups: sp.groups}
				x := randTensor(g, 2, sp.ci, sp.h, sp.w)
				wt := randTensor(g, sp.co, sp.ci/sp.groups, sp.kh, sp.kw)
				if si%2 == 0 {
					wt.MarkCacheable()
				}
				eps := diffEpilogues(randTensor(g, sp.co))
				requireAllKnobs(t, x, wt, p, eps, si, fmt.Sprintf("shape %d %+v", si, sp))
				wt.InvalidateCache()
			}
		})
	})
}

// TestConvPaddedPlanesPerWorker runs padded convolutions at whatever
// GOMAXPROCS the test binary was given (`make race` passes -cpu 1,2,4): a
// batch of eight, where every worker pads the images of its own chunk into
// its own pooled planes, and a batch of one, where the caller pads and the
// helpers it hands panel ranges to read the same planes. Under the race
// detector a plane buffer shared between two workers is a reported race;
// either way the output must be the reference's.
func TestConvPaddedPlanesPerWorker(t *testing.T) {
	g := tensor.NewRNG(47)
	for _, groups := range []int{1, 3} { // blocked, and direct (depthwise)
		p := ConvParams{PadH: 1, PadW: 2, Groups: groups}
		co := 8
		if groups > 1 {
			co = groups
		}
		wt := randTensor(g, co, 3/groups, 3, 3)
		bias := randTensor(g, co)
		for _, n := range []int{8, 1} {
			x := randTensor(g, n, 3, 9, 10)
			for _, knob := range []convKnob{{}, {samp: sampSpec{2, 1}}, {perf: &perfSpec{dir: PerfCols, stride: 3, offset: 1}}} {
				ep := Epilogue{Bias: bias, Act: ActReLU}
				want := refConvolve(x, wt, p, FP32, knob, ep)
				for rep := 0; rep < 4; rep++ {
					requireSameBits(t, engineConvolve(t, x, wt, p, FP32, knob, ep), want, "groups=%d n=%d %v rep %d", groups, n, knob, rep)
				}
			}
		}
	}
}

// TestConvLoweringFirstUse: a marked weight keeps its layer's lowering —
// the plan, and for small groups the tap table — built by whichever call
// asks first. Eight goroutines race to that first use at two batch sizes
// (batch 3 of a 2×3 grid makes the blocked layer's images share one N, so
// its plan is not the per-image one), under three knobs and both
// precisions, for a blocked and a depthwise layer; every call must return
// the bits of the same call on an unmarked copy, which keeps nothing.
// `make race` runs it at -cpu 1,2,4.
func TestConvLoweringFirstUse(t *testing.T) {
	g := tensor.NewRNG(83)
	for _, tc := range []struct{ co, ci, groups int }{{8, 4, 1}, {6, 6, 6}} {
		p := ConvParams{PadH: 1, PadW: 1, Groups: tc.groups}
		wt := randTensor(g, tc.co, tc.ci/tc.groups, 3, 3)
		ep := Epilogue{Bias: randTensor(g, tc.co), Act: ActTanh}
		xs := []*tensor.Tensor{randTensor(g, 1, tc.ci, 2, 3), randTensor(g, 3, tc.ci, 2, 3)}
		for _, knob := range []convKnob{{}, {samp: sampSpec{2, 1}}, {perf: &perfSpec{dir: PerfCols, stride: 2, offset: 0}}} {
			for _, prec := range []Precision{FP32, FP16} {
				var want []*tensor.Tensor
				for _, x := range xs {
					want = append(want, engineConvolve(t, x, wt, p, prec, knob, ep))
				}
				cw := wt.Clone().MarkCacheable()
				start := make(chan struct{})
				var wg sync.WaitGroup
				for gr := 0; gr < 8; gr++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := range xs {
							i = (i + gr) % len(xs)
							var got *tensor.Tensor
							switch {
							case knob.perf != nil:
								got = Conv2DPerforatedFused(xs[i], cw, p, knob.perf.dir, knob.perf.stride, knob.perf.offset, prec, ep)
							case knob.samp.stride != 0:
								got = Conv2DFilterSamplingFused(xs[i], cw, p, knob.samp.stride, knob.samp.offset, prec, ep)
							default:
								got = Conv2DFused(xs[i], cw, p, prec, ep)
							}
							if !slices.EqualFunc(got.Data(), want[i].Data(), func(a, b float32) bool {
								return math.Float32bits(a) == math.Float32bits(b)
							}) {
								t.Errorf("groups=%d %v %v batch %d: goroutine %d differs from the unmarked weight", tc.groups, knob, prec, xs[i].Dim(0), gr)
							}
						}
					}()
				}
				close(start)
				wg.Wait()
			}
		}
	}
}

// TestConvSmallGroupSpecialValues holds the engine to the reference where
// non-finite values and signed zeros meet the padding: ±Inf and NaN weights,
// ±Inf and NaN inputs, inputs that are all −0 and a filter channel of zeros,
// at cog 1 and 2 (direct) and 4 (blocked), stride 1 and 2, under both
// precisions, several knobs and every tier. The reference multiplies a
// padding tap as a stored +0, so an infinite or NaN weight gives NaN at the
// border. Each case plants one kind of value only: where NaNs of two payloads
// meet in a sum, which survives is the compiler's choice of operand order in
// the reference. At cog 4 the two images share one GEMM N wherever a knob
// leaves fewer than eight outputs (the 3×4 input), and column perforation
// packs its panels with the vector permute (the 11×12 one). A zero weight
// against a non-finite input is checked twice: at cog 1 and 2 against the
// reference that skips the term, as direct does, and at cog 4 against one
// that multiplies every term, as every blocked kernel does — in a tail
// column as in a panel column, so that the NaN does not depend on where the
// output lands.
func TestConvSmallGroupSpecialValues(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	every := func(d []float32, k int, v ...float32) {
		for i := 0; i < len(d); i += k {
			d[i] = v[i/k%len(v)]
		}
	}
	zeroWeightsInfInputs := func(x, w []float32, kvol int) { every(x, 9, inf, -inf); every(w, 4, 0) }
	direct, all := []int{1, 2}, []int{1, 2, 4}
	cases := []struct {
		name  string
		cogs  []int
		every bool // the reference multiplies every term
		plant func(x, w []float32, kvol int)
	}{
		{"inf-weights", all, false, func(x, w []float32, kvol int) { every(w, 5, inf, -inf) }},
		{"nan-weights", all, false, func(x, w []float32, kvol int) { every(w, 7, nan) }},
		{"inf-inputs", all, false, func(x, w []float32, kvol int) { every(x, 9, inf, -inf) }},
		{"nan-inputs", all, false, func(x, w []float32, kvol int) { every(x, 11, nan) }},
		{"negzero-inputs", all, false, func(x, w []float32, kvol int) { every(x, 1, float32(math.Copysign(0, -1))) }},
		{"zero-channel", all, false, func(x, w []float32, kvol int) { clear(w[kvol : 2*kvol]) }},
		{"zero-weights-inf-inputs", direct, false, zeroWeightsInfInputs},
		{"zero-weights-inf-inputs-every-term", []int{4}, true, zeroWeightsInfInputs},
	}
	knobs := []convKnob{{}, {samp: sampSpec{2, 0}}, {perf: &perfSpec{dir: PerfRows, stride: 2, offset: 0}}, {perf: &perfSpec{dir: PerfCols, stride: 3, offset: 1}}}
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(61)
		for _, tc := range cases {
			for _, cog := range tc.cogs {
				for _, stride := range []int{1, 2} {
					for _, hw := range [][2]int{{11, 12}, {3, 4}} {
						p := ConvParams{StrideH: stride, StrideW: stride, PadH: 1, PadW: 1, Groups: 4}
						x := randTensor(g, 2, 4, hw[0], hw[1])
						wt := randTensor(g, 4*cog, 1, 3, 3)
						tc.plant(x.Data(), wt.Data(), 9)
						eps := diffEpilogues(randTensor(g, 4*cog))
						for _, prec := range []Precision{FP32, FP16} {
							for ki, knob := range knobs {
								gemm := gemmRef
								if tc.every {
									if knob.samp.stride != 0 {
										continue // the reference samples by zeroing weights, the engine drops the terms
									}
									gemm = gemmRefEvery
								}
								ep := eps[ki%len(eps)]
								want := refConvolveWith(gemm, x, wt, p, prec, knob, ep)
								requireSameBits(t, engineConvolve(t, x, wt, p, prec, knob, ep), want,
									"%s cog=%d stride=%d in=%v %v %v", tc.name, cog, stride, hw, prec, knob)
							}
						}
					}
				}
			}
		}
	})
}

// TestConvNarrowGrids runs the outputs narrower than a panel — 2×2
// (MobileNet's last pointwise layers), 1×3 and 3×1 — at batch 1, where
// each image's few columns are one zero-padded panel, and 2, 3, 8 and 16,
// where the images share one GEMM N, through every knob (both perforation
// directions, strides 2–4, every offset), both precisions, every tier and
// one and three workers. Seven output channels leave three rows for the
// remainder kernel; the 3×3 filters read padding.
func TestConvNarrowGrids(t *testing.T) {
	withProcs(t, []int{1, 3}, func(t *testing.T) {
		forEachTier(t, func(t *testing.T) {
			g := tensor.NewRNG(71)
			for _, out := range [][2]int{{2, 2}, {1, 3}, {3, 1}} {
				for ki, k := range []int{1, 3} {
					p := ConvParams{PadH: k / 2, PadW: k / 2}
					wt := randTensor(g, 7, 5, k, k)
					if ki == 0 {
						wt.MarkCacheable()
					}
					eps := diffEpilogues(randTensor(g, 7))
					for ni, n := range []int{1, 2, 3, 8, 16} {
						x := randTensor(g, n, 5, out[0], out[1])
						requireAllKnobs(t, x, wt, p, eps, ni, fmt.Sprintf("out=%v k=%d n=%d", out, k, n))
					}
					wt.InvalidateCache()
				}
			}
		})
	})
}

// FuzzConvDirectVsReference draws a convolution — shape, stride, padding,
// grouping, precision, epilogue, knob, GOMAXPROCS — from the fuzz input and
// requires the engine, under every kernel tier the CPU has, and the
// reference to agree bit for bit. The seed corpus is committed under
// testdata/fuzz (one entry per engine path) and runs as part of the
// ordinary test suite; `make fuzz-smoke` mutates it.
func FuzzConvDirectVsReference(f *testing.F) {
	knobs := allConvKnobs()
	f.Fuzz(func(t *testing.T, seed int64, b []byte) {
		if len(b) < 16 {
			t.Skip()
		}
		pick := func(i, lo, hi int) int { return lo + int(b[i])%(hi-lo+1) }
		n, cig := pick(0, 1, 3), pick(1, 1, 6)
		h, w := pick(2, 1, 30), pick(3, 1, 30)
		cog := pick(4, 1, 9)
		kh, kw := pick(5, 1, 5), pick(6, 1, 5)
		p := ConvParams{
			StrideH: pick(7, 1, 3), StrideW: pick(8, 1, 3),
			PadH: pick(9, 0, 3), PadW: pick(10, 0, 3),
			Groups: pick(11, 1, 4),
		}
		if h+2*p.PadH < kh || w+2*p.PadW < kw {
			t.Skip() // no output position
		}
		prec := Precision(pick(12, 0, 1))
		knob := knobs[int(b[13])%len(knobs)]
		g := tensor.NewRNG(seed)
		x := randTensor(g, n, cig*p.Groups, h, w)
		wt := randTensor(g, cog*p.Groups, cig, kh, kw)
		// Exact zeros exercise the kernels' sparsity skips (ReLU outputs,
		// pruned weights).
		for i, d := 0, x.Data(); i < len(d); i += 3 {
			d[i] = 0
		}
		for i, d := 0, wt.Data(); i < len(d); i += 5 {
			d[i] = 0
		}
		ep := diffEpilogues(randTensor(g, cog*p.Groups))[pick(14, 0, 3)]
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pick(15, 1, 4)))
		want := refConvolve(x, wt, p, prec, knob, ep)
		defer func(prev kernelTier) { gemmTier = prev }(gemmTier)
		for tier := tierPortable; tier <= bestTier(); tier++ {
			gemmTier = tier
			got := engineConvolve(t, x, wt, p, prec, knob, ep)
			requireSameBits(t, got, want, "tier=%v n=%d cig=%d cog=%d in=%dx%d k=%dx%d %+v %v %v", tier, n, cig, cog, h, w, kh, kw, p, prec, knob)
		}
	})
}
