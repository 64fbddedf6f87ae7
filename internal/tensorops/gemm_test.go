package tensorops

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// gemmRef is the pre-blocking reference kernel (the naive triple loop with
// the per-element zero skip) the blocked engine is pinned against. Each
// output element accumulates left-to-right over l, the exact order the
// micro-kernels preserve, so for a zeroed C the blocked kernel must be
// bit-identical. The product is rounded on its own, as every kernel rounds
// it, wherever the compiler could fuse it into the sum.
func gemmRef(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for l, av := range arow {
			// reference kernel mirrors the engine's sparsity skip
			if av == 0 {
				continue
			}
			brow := b[l*n : (l+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

func fillNormal(g *tensor.RNG, d []float32) {
	for i := range d {
		d[i] = float32(g.NormFloat64())
	}
}

// gemmShapes is the differential grid: odd, prime, power-of-two and
// just-past-power-of-two extents exercise every edge path (M remainder
// rows, N tail columns, sub-panel matrices).
var gemmShapes = []int{1, 3, 7, 17, 64, 129}

// forEachTier runs fn once per kernel tier — AVX, portable — as a subtest
// named after the tier, with the dispatch variable swapped for its
// duration. A tier this CPU or architecture lacks is skipped with a message.
// Every tier is held to the same reference, so they are bit-identical to
// each other as well.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	for _, tier := range []kernelTier{tierAVX, tierPortable} {
		t.Run(tier.String(), func(t *testing.T) {
			if tier > bestTier() {
				t.Skipf("no %v kernel tier on this CPU/architecture", tier)
			}
			defer func(prev kernelTier) { gemmTier = prev }(gemmTier)
			gemmTier = tier
			fn(t)
		})
	}
}

// requireSameSlice fails unless got and want hold the same float32 bit
// patterns: an operand a kernel only reads comes back as it went in.
func requireSameSlice(t *testing.T, got, want []float32, format string, args ...any) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf(format+": [%d] = %v, was %v", append(args, i, got[i], want[i])...)
		}
	}
}

func TestGemmMatchesReferenceExactly(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(11)
		for _, m := range gemmShapes {
			for _, k := range gemmShapes {
				for _, n := range gemmShapes {
					a := make([]float32, m*k)
					b := make([]float32, k*n)
					fillNormal(g, a)
					fillNormal(g, b)
					a0, b0 := slices.Clone(a), slices.Clone(b)
					got := make([]float32, m*n)
					want := make([]float32, m*n)
					Gemm(a, b, got, m, k, n)
					requireSameSlice(t, a, a0, "m=%d k=%d n=%d: A written", m, k, n)
					requireSameSlice(t, b, b0, "m=%d k=%d n=%d: B written", m, k, n)
					gemmRef(a, b, want, m, k, n)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("m=%d k=%d n=%d: C[%d] = %v, reference %v (must be bit-identical into zeroed C)",
								m, k, n, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

func TestGemmSparseAMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		// Filter-sampling-style sparsity: the same flattened positions zeroed
		// in every row of A. No tier skips them; their ±0 products must leave
		// the accumulators as the reference's skip does.
		g := tensor.NewRNG(12)
		for _, stride := range []int{2, 3, 4} {
			m, k, n := 9, 35, 21
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillNormal(g, a)
			fillNormal(g, b)
			for i := 0; i < m; i++ {
				for l := 0; l < k; l++ {
					if l%stride == 0 {
						a[i*k+l] = 0
					}
				}
			}
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			Gemm(a, b, got, m, k, n)
			gemmRef(a, b, want, m, k, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stride=%d: C[%d] = %v, reference %v", stride, i, got[i], want[i])
				}
			}
		}
	})
}

func TestGemmAccumulatesIntoNonZeroC(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		// With a pre-filled C the engine computes c + (t0+t1+…) while the
		// reference computes ((c+t0)+t1)+…; equal within rounding tolerance.
		g := tensor.NewRNG(13)
		m, k, n := 17, 29, 23
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillNormal(g, a)
		fillNormal(g, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillNormal(g, got)
		copy(want, got)
		Gemm(a, b, got, m, k, n)
		gemmRef(a, b, want, m, k, n)
		for i := range want {
			d := float64(got[i]) - float64(want[i])
			if d < 0 {
				d = -d
			}
			if d > 1e-5 {
				t.Fatalf("C[%d] = %v, reference %v (|Δ| %v > 1e-5)", i, got[i], want[i], d)
			}
		}
	})
}

func TestGemmEngineQuantBMatchesQuantizedReference(t *testing.T) {
	// Pack-time FP16 quantization of B must equal quantizing B first, bit
	// for bit, in the panels and in the packed tail columns: n = 3 is all
	// tail, n = 7 one panel and a tail.
	g := tensor.NewRNG(14)
	for _, n := range []int{3, 7, 16, 129} {
		m, k := 13, 37
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillNormal(g, a)
		fillNormal(g, b)
		bq := make([]float32, len(b))
		for i, v := range b {
			bq[i] = tensor.QuantizeFP16(v)
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		gemmFresh(a, b, got, m, k, n, true, nil)
		gemmRef(a, bq, want, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: C[%d] = %v, reference %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestGemmDegenerateDims(t *testing.T) {
	c := []float32{5}
	Gemm(nil, nil, c, 1, 0, 1) // k=0: C unchanged
	if c[0] != 5 {
		t.Fatalf("k=0 Gemm mutated C: %v", c[0])
	}
	Gemm(nil, nil, nil, 0, 3, 0) // empty: no panic
}

// TestKernelTierNamesTheDispatch pins the reported name to what runs: the
// widest tier available is the one selected at start-up, and the name
// follows the dispatch variable when a test swaps it.
func TestKernelTierNamesTheDispatch(t *testing.T) {
	if gemmTier != bestTier() {
		t.Fatalf("start-up tier %v is not the widest available, %v", gemmTier, bestTier())
	}
	names := map[string]bool{}
	forEachTier(t, func(t *testing.T) {
		names[KernelTier()] = true
		if got := KernelTier(); got != gemmTier.String() && got != "avx+f16c" {
			t.Fatalf("KernelTier() = %q under tier %v", got, gemmTier)
		}
	})
	if len(names) != int(bestTier())+1 {
		t.Fatalf("%d tiers reported as %v", bestTier()+1, names)
	}
}

// TestGemmRowBlockPanelCountsAndOffsets drives gemmRowBlock directly where
// the grid's shapes do not reach: every panel count 1…9 of eight-wide panels
// (so the AVX tier sees zero to four 4×16 pairs with and without an odd last
// panel's 4×8 step), k from 0 through both parities of its two-step
// unrolled loop, and A, the panels and the C row segments starting at
// addresses that are not 32-byte aligned, with C's row stride odd. Guard
// values around each C segment catch a store outside it. A second pattern
// plants special values where the last panel's columns read them, in both
// of its halves and in lane 7: an all-zero A column, −0, NaN and +Inf in A,
// and NaN, ±Inf and −0 in B. The zeros of A sit where B is finite, because the
// reference skips a zero activation and the tile multiplies it.
func TestGemmRowBlockPanelCountsAndOffsets(t *testing.T) {
	const guard = float32(-777.25)
	nan, inf, negz := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(19)
		shifted := func(n, off int) []float32 { return make([]float32, n+off)[off:] }
		for _, k := range []int{0, 1, 2, 5, 32, 33} {
			for np := 1; np <= 9; np++ {
				for _, off := range []int{0, 1, 3, 5} {
					for _, special := range []bool{false, true} {
						if special && k < 5 {
							continue
						}
						n := np * gemmNR
						a, b := shifted(gemmMR*k, off), make([]float32, k*n)
						fillNormal(g, a)
						fillNormal(g, b)
						if special {
							for r := 0; r < gemmMR; r++ {
								a[r*k] = 0 // l = 0: an all-zero column
							}
							a[1*k+1], a[2*k+2], a[3*k+3] = negz, nan, inf
							last := b[5*n-gemmNR : 5*n] // l = 4, the last panel's columns
							last[0], last[3], last[4], last[7] = nan, inf, -inf, negz
							last[1], last[6] = negz, nan
						}
						packed := shifted(np*k*gemmNR, off)
						packRange(0, np, b, packed, k, n, false)
						want := make([]float32, gemmMR*n)
						gemmRef(a, b, want, gemmMR, k, n)

						j0, ldc := off, n+2*off+1
						c := shifted(gemmMR*ldc, off)
						for i := range c {
							c[i] = guard
						}
						for r := 0; r < gemmMR; r++ {
							clear(c[r*ldc+j0 : r*ldc+j0+n])
						}
						gemmRowBlock(a, c, packed, 0, gemmMR, k, ldc, j0, np)
						for i, v := range c {
							r, j := i/ldc, i%ldc-j0
							switch {
							case j < 0 || j >= n:
								if v != guard {
									t.Fatalf("k=%d np=%d off=%d special=%v: wrote outside the tile at C[%d][%d]", k, np, off, special, r, j)
								}
							case math.Float32bits(v) != math.Float32bits(want[r*n+j]):
								t.Fatalf("k=%d np=%d off=%d special=%v: C[%d][%d] = %v (%#08x), reference %v (%#08x)", k, np, off, special, r, j,
									v, math.Float32bits(v), want[r*n+j], math.Float32bits(want[r*n+j]))
							}
						}
					}
				}
			}
		}
	})
}

// TestGemmZeroTermRulePerRow: a zero A element against ±Inf in B follows
// its row's kernel in every column, panel and tail alike. The rows of full
// four-row blocks multiply every term (gemmRefEvery: NaN); the rows of
// m = 1–3 and the remainder rows of m = 6 and 7 skip it, as gemmRef and the
// row kernel do. Every second row has a zero against a B row of infinities;
// N runs from all tail to panels with a tail of one to three.
func TestGemmZeroTermRulePerRow(t *testing.T) {
	inf := float32(math.Inf(1))
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(23)
		for _, m := range []int{1, 2, 3, 6, 7, 8} {
			for _, n := range []int{3, 6, 9, 11} {
				k := 7
				a, b := make([]float32, m*k), make([]float32, k*n)
				fillNormal(g, a)
				fillNormal(g, b)
				for i := 0; i < m; i += 2 {
					a[i*k+2] = 0
				}
				for j := 0; j < n; j++ {
					b[2*n+j] = inf
					if j%2 == 1 {
						b[2*n+j] = -inf
					}
				}
				want, got := make([]float32, m*n), make([]float32, m*n)
				for i := 0; i < m; i++ {
					ref := gemmRefEvery
					if i >= m&^(gemmMR-1) {
						ref = gemmRef
					}
					ref(a[i*k:(i+1)*k], b, want[i*n:(i+1)*n], 1, k, n)
				}
				Gemm(a, b, got, m, k, n)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("m=%d n=%d: C[%d][%d] = %v, per-row reference %v", m, n, i/n, i%n, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestPanelBlockLeavesNoOddPanelMidRange pins the block size blockedRange
// steps by, in eight-wide panels: always even, so that walking any unit
// range the way blockedRange does hands the AVX kernel's 4×16 pair step
// every panel except, at most, the range's last, and within the pack budget
// unless one pair already exceeds it. kc = 576 and 1152 are resnet18's 64-
// and 128-channel 3×3 layers, where the budget alone gives 3 and 1; past
// kc = 1024 it gives 1, past 2048 none.
func TestPanelBlockLeavesNoOddPanelMidRange(t *testing.T) {
	for _, tc := range []struct{ kc, want int }{
		{1, 2048}, {27, 74}, {72, 28}, {288, 6}, {576, 2}, {1024, 2}, {1152, 2}, {2304, 2}, {9000, 2},
	} {
		blk := panelBlock(tc.kc)
		if blk != tc.want {
			t.Errorf("panelBlock(%d) = %d, want %d", tc.kc, blk, tc.want)
		}
		if blk > 2 && blk*tc.kc*gemmNR > packBlockFloats {
			t.Errorf("panelBlock(%d) = %d panels overruns the %d-float budget", tc.kc, blk, packBlockFloats)
		}
		for _, r := range [][2]int{{0, 64}, {3, 64}, {5, 18}, {0, 7}, {10, 11}} {
			step := min(blk, r[1]-r[0])
			for b0 := r[0]; b0 < r[1]; b0 += step {
				if b1 := min(b0+step, r[1]); (b1-b0)%2 != 0 && b1 != r[1] {
					t.Errorf("kc=%d range %v: block [%d,%d) leaves an odd panel before the range ends", tc.kc, r, b0, b1)
				}
			}
		}
	}
}

// naiveConv32 is a float32-accumulation direct convolution whose reduction
// order (channel → kernel row → kernel column, ascending) matches the
// im2col+GEMM engine's flattened-l order, making the comparison exact.
func naiveConv32(x, w *tensor.Tensor, p ConvParams) *tensor.Tensor {
	p = p.Norm()
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	co, cig, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := p.Groups
	cog := co / g
	ho := tensor.ConvOutDim(h, kh, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(wd, kw, p.StrideW, p.PadW)
	out := tensor.New(n, co, ho, wo)
	for img := 0; img < n; img++ {
		for oc := 0; oc < co; oc++ {
			grp := oc / cog
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					var acc float32
					for c := 0; c < cig; c++ {
						ic := grp*cig + c
						for ky := 0; ky < kh; ky++ {
							iy := oy*p.StrideH - p.PadH + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*p.StrideW - p.PadW + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += float32(x.At(img, ic, iy, ix) * w.At(oc, c, ky, kx))
							}
						}
					}
					out.Set(acc, img, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvGroupedDepthwiseMatchesFloat32Naive(t *testing.T) {
	g := tensor.NewRNG(15)
	cases := []struct {
		n, ci, h, w int
		co, kh, kw  int
		p           ConvParams
	}{
		{2, 4, 9, 9, 8, 3, 3, ConvParams{Groups: 2, PadH: 1, PadW: 1}},
		{1, 6, 7, 11, 6, 3, 3, ConvParams{Groups: 6, PadH: 1, PadW: 1}},                          // depthwise
		{2, 8, 13, 13, 8, 3, 3, ConvParams{Groups: 8, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}}, // strided depthwise
		{1, 9, 17, 5, 18, 5, 1, ConvParams{Groups: 3, PadH: 2}},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			x := randTensor(g, tc.n, tc.ci, tc.h, tc.w)
			w := randTensor(g, tc.co, tc.ci/tc.p.Norm().Groups, tc.kh, tc.kw)
			got := Conv2D(x, w, tc.p, FP32)
			want := naiveConv32(x, w, tc.p)
			if d := tensor.MaxAbsDiff(got, want); d > 1e-5 {
				t.Fatalf("max abs diff %v > 1e-5 vs float32 naive conv", d)
			}
		})
	}
}

func TestConvFP16MatchesQuantizedNaive(t *testing.T) {
	g := tensor.NewRNG(16)
	x := randTensor(g, 2, 3, 9, 9)
	w := randTensor(g, 4, 3, 3, 3)
	p := ConvParams{PadH: 1, PadW: 1}
	got := Conv2D(x, w, p, FP16)
	want := naiveConv32(x.CloneFP16(), w.CloneFP16(), p).ToFP16()
	if d := tensor.MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("FP16 conv max abs diff %v > 1e-5 vs quantized float32 naive conv", d)
	}
}

func TestMatMulFP16MatchesQuantizedReference(t *testing.T) {
	g := tensor.NewRNG(17)
	n, k, m := 5, 19, 11
	x := randTensor(g, n, k)
	w := randTensor(g, k, m)
	got := MatMul(x, w, FP16)
	want := tensor.New(n, m)
	gemmRef(x.CloneFP16().Data(), w.CloneFP16().Data(), want.Data(), n, k, m)
	want.ToFP16()
	if d := tensor.MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("FP16 MatMul max abs diff %v > 1e-5", d)
	}
}
