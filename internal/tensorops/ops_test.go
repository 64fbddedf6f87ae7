package tensorops

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestReLU(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 0, 2, -3.5}, 4)
	y := ReLU(x, FP32)
	want := []float32{0, 0, 2, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("ReLU elem %d = %v, want %v", i, v, want[i])
		}
	}
	if x.Data()[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestClippedReLU(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 3, 7}, 3)
	y := ClippedReLU(x, 6, FP32)
	want := []float32{0, 3, 6}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("ClippedReLU elem %d = %v, want %v", i, v, want[i])
		}
	}
}

func TestTanh(t *testing.T) {
	x := tensor.FromSlice([]float32{0, 1}, 2)
	y := Tanh(x, FP32)
	if y.Data()[0] != 0 {
		t.Errorf("tanh(0) = %v", y.Data()[0])
	}
	if math.Abs(float64(y.Data()[1])-math.Tanh(1)) > 1e-6 {
		t.Errorf("tanh(1) = %v", y.Data()[1])
	}
}

func TestBiasAdd4D(t *testing.T) {
	x := tensor.New(1, 2, 2, 2)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	y := BiasAdd(x, b, FP32)
	if y.At(0, 0, 1, 1) != 10 || y.At(0, 1, 0, 0) != 20 {
		t.Fatalf("BiasAdd wrong: %v", y.Data())
	}
}

func TestBiasAdd2D(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	y := BiasAdd(x, b, FP32)
	want := []float32{11, 22, 13, 24}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("BiasAdd2D elem %d = %v, want %v", i, v, want[i])
		}
	}
}

func TestAddResidual(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{3, 4}, 2)
	y := Add(a, b, FP32)
	if y.Data()[0] != 4 || y.Data()[1] != 6 {
		t.Fatalf("Add = %v", y.Data())
	}
}

func TestMaxPool(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := MaxPool(x, PoolParams{KH: 2, KW: 2}, FP32)
	want := []float32{6, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("MaxPool elem %d = %v, want %v", i, v, want[i])
		}
	}
}

func TestAvgPool(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	y := AvgPool(x, PoolParams{KH: 2, KW: 2}, FP32)
	if y.Elems() != 1 || y.Data()[0] != 2.5 {
		t.Fatalf("AvgPool = %v", y.Data())
	}
}

func TestAvgPoolPaddingExcludedFromCount(t *testing.T) {
	// With padding, averages are over in-bounds (and sampled) elements only.
	x := tensor.FromSlice([]float32{4}, 1, 1, 1, 1)
	y := AvgPool(x, PoolParams{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, FP32)
	if y.Data()[0] != 4 {
		t.Fatalf("padded AvgPool = %v, want 4 (average over the single real element)", y.Data()[0])
	}
}

// refPool is the pooling loop as it was before the keep table and the
// interior/border split: every tap of every window tested for bounds and
// for sampling. poolSampled must reproduce it bit for bit.
func refPool(x *tensor.Tensor, p PoolParams, avg bool, num, den int) *tensor.Tensor {
	p = p.Norm()
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho := tensor.ConvOutDim(h, p.KH, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(w, p.KW, p.StrideW, p.PadW)
	out := tensor.New(n, c, ho, wo)
	for nc := 0; nc < n*c; nc++ {
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				var acc float64
				count := 0
				best := float32(math.Inf(-1))
				for ky := 0; ky < p.KH; ky++ {
					for kx := 0; kx < p.KW; kx++ {
						iy, ix := oy*p.StrideH-p.PadH+ky, ox*p.StrideW-p.PadW+kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w || ((ky*p.KW+kx)*num)%den >= num {
							continue
						}
						v := x.Data()[nc*h*w+iy*w+ix]
						acc += float64(v)
						count++
						if v > best {
							best = v
						}
					}
				}
				var r float32
				switch {
				case count == 0:
				case avg:
					r = float32(acc / float64(count))
				default:
					r = best
				}
				out.Data()[nc*ho*wo+oy*wo+ox] = r
			}
		}
	}
	return out
}

// refPoolPrec is refPool under a precision: FP16 pools the quantized input
// and rounds an average back to half precision.
func refPoolPrec(x *tensor.Tensor, p PoolParams, prec Precision, avg bool, num, den int) *tensor.Tensor {
	if prec == FP32 {
		return refPool(x, p, avg, num, den)
	}
	xq := x.Clone()
	xq.ToFP16()
	out := refPool(xq, p, avg, num, den)
	out.ToFP16()
	return out
}

var poolRatios = [][2]int{{1, 1}, {1, 2}, {2, 5}, {1, 4}, {3, 4}}

// TestPoolMatchesReferenceLoop: under every tier, both precisions and all
// sampling ratios, over windows, strides and paddings whose interior rows
// run from none to 17 windows (below, at and across the eight-lane vector).
func TestPoolMatchesReferenceLoop(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(21)
		for _, k := range [][2]int{{2, 2}, {3, 3}, {2, 3}, {5, 1}, {1, 4}} {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, 2} {
					p := PoolParams{KH: k[0], KW: k[1], StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
					for _, hw := range [][2]int{{5, 5}, {7, 4}, {9, 11}, {4, 18}, {3, 35}} {
						if hw[0]+2*pad < k[0] || hw[1]+2*pad < k[1] {
							continue
						}
						x := randTensor(g, 2, 3, hw[0], hw[1])
						x0 := x.Clone()
						for _, r := range poolRatios {
							for _, avg := range []bool{false, true} {
								for _, prec := range []Precision{FP32, FP16} {
									got := poolSampled(x, p, prec, avg, r[0], r[1], rowEpi{}, false)
									requireSameBits(t, got, refPoolPrec(x, p, prec, avg, r[0], r[1]),
										"pool %+v in=%v avg=%v ratio=%d/%d %v", p, hw, avg, r[0], r[1], prec)
									requireSameBits(t, x, x0, "pool %+v in=%v: input written", p, hw)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestMaxPoolSpecialValues: windows holding NaNs, infinities and signed
// zeros, each at every position of rows of 1, 3, 4, 7, 8, 9 and 17 windows
// — one at a time, four lanes alone and overlapped, eight lanes alone and
// overlapped — as 2×2 windows at stride 2 and 4×1 windows at stride 1,
// under both precisions and every tier. The fold keeps the first of equal zeros and never picks a
// NaN, so an all-NaN window gives −Inf; only a window with no tap inside
// the input gives 0.
func TestMaxPoolSpecialValues(t *testing.T) {
	nan, inf, negz := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	cases := []struct {
		name string
		taps [4]float32 // in (ky, kx) order
		want float32
	}{
		{"NaN first", [4]float32{nan, 1, -2, 0.5}, 1},
		{"NaN last", [4]float32{1, -2, 0.5, nan}, 1},
		{"all NaN", [4]float32{nan, nan, nan, nan}, -inf},
		{"all -Inf", [4]float32{-inf, -inf, -inf, -inf}, -inf},
		{"+0 then -0", [4]float32{0, negz, -1, -3}, 0},
		{"-0 then +0", [4]float32{negz, 0, -1, -3}, negz},
		{"+Inf past NaN", [4]float32{-inf, nan, inf, 1}, inf},
	}
	// check compares out with want bit for bit; name(j) labels output j.
	check := func(t *testing.T, out *tensor.Tensor, want []float32, name func(j int) string, desc string) {
		t.Helper()
		for j, v := range out.Data() {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("%s: output %d (%s) = %v, want %v", desc, j, name(j), v, want[j])
			}
		}
	}
	forEachTier(t, func(t *testing.T) {
		for _, prec := range []Precision{FP32, FP16} {
			for _, wo := range []int{1, 3, 4, 7, 8, 9, 17} {
				for shift := range cases {
					at := func(j int) int { return (j + shift) % len(cases) }
					x2 := tensor.New(1, 1, 2, 2*wo) // window j: columns 2j, 2j+1
					x4 := tensor.New(1, 1, 4, wo)   // window j: column j
					want := make([]float32, wo)
					for j := range want {
						tp := cases[at(j)].taps
						x2.Set(tp[0], 0, 0, 0, 2*j)
						x2.Set(tp[1], 0, 0, 0, 2*j+1)
						x2.Set(tp[2], 0, 0, 1, 2*j)
						x2.Set(tp[3], 0, 0, 1, 2*j+1)
						for ky, v := range tp {
							x4.Set(v, 0, 0, ky, j)
						}
						want[j] = cases[at(j)].want
					}
					name := func(j int) string { return cases[at(j)].name }
					desc := fmt.Sprintf("%v wo=%d shift=%d", prec, wo, shift)
					check(t, MaxPool(x2, PoolParams{KH: 2, KW: 2}, prec), want, name, "2×2/2 "+desc)
					check(t, MaxPool(x4, PoolParams{KH: 4, KW: 1, StrideH: 1, StrideW: 1}, prec), want, name, "4×1/1 "+desc)
				}
			}
			// One element padded by one. With 1×1 windows the eight around it
			// hold padding only; every 2×2 window holds the element and
			// padding, so the border path's rule shows.
			for _, v := range []float32{nan, -inf, negz} {
				x := tensor.FromSlice([]float32{v}, 1, 1, 1, 1)
				only := v
				if v != v {
					only = -inf
				}
				ring := make([]float32, 9)
				ring[4] = only
				name := func(j int) string {
					if j == 4 {
						return "the element"
					}
					return "padding only"
				}
				desc := fmt.Sprintf("%v padding around %v", prec, v)
				check(t, MaxPool(x, PoolParams{KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, prec), ring, name, "1×1 "+desc)
				check(t, MaxPool(x, PoolParams{KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, prec),
					[]float32{only, only, only, only}, func(int) string { return "the element and padding" }, "2×2 "+desc)
			}
		}
	})
}

// poolSpecials are the bit patterns FuzzMaxPool decodes the bytes below
// len(poolSpecials) to: both zeros, both infinities, quiet NaNs of both
// signs and a signalling NaN with a payload.
var poolSpecials = []uint32{0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7f800001}

// FuzzMaxPool draws a max pool from ctl — window 1–4 × 1–4, strides 1–3,
// padding 0–2, one of five sampling ratios, 1–3 planes of 1–40 × 1–40, either
// precision — and its input from vals, cycled: a byte below
// len(poolSpecials) is that special value, any other b is int8(b)/8, so
// NaNs, infinities, signed zeros and ties all occur. poolSampled under every
// tier the CPU has must equal refPool bit for bit and leave its input as it
// was, and so must MaxPoolSampledTanh over x against the pool of tanh(x),
// at each precision pair it is exact for. The committed corpus holds output widths 1, 7, 8, 9, 15, 16 and 17 and
// NaN and −0 inputs.
func FuzzMaxPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, ctl, vals []byte) {
		if len(ctl) < 11 || len(vals) == 0 {
			t.Skip()
		}
		pick := func(i, lo, hi int) int { return lo + int(ctl[i])%(hi-lo+1) }
		p := PoolParams{
			KH: pick(0, 1, 4), KW: pick(1, 1, 4),
			StrideH: pick(2, 1, 3), StrideW: pick(3, 1, 3),
			PadH: pick(4, 0, 2), PadW: pick(5, 0, 2),
		}
		r := poolRatios[pick(6, 0, len(poolRatios)-1)]
		h, w := pick(7, 1, 40), pick(8, 1, 40)
		prec := Precision(pick(9, 0, 1))
		if h+2*p.PadH < p.KH || w+2*p.PadW < p.KW {
			t.Skip() // no output position
		}
		x := tensor.New(1, pick(10, 1, 3), h, w)
		xd := x.Data()
		for i := range xd {
			if b := vals[i%len(vals)]; int(b) < len(poolSpecials) {
				xd[i] = math.Float32frombits(poolSpecials[b])
			} else {
				xd[i] = float32(int8(b)) / 8
			}
		}
		x0 := x.Clone()
		want := refPoolPrec(x, p, prec, false, r[0], r[1])
		defer func(prev kernelTier) { gemmTier = prev }(gemmTier)
		for tier := tierPortable; tier <= bestTier(); tier++ {
			gemmTier = tier
			got := poolSampled(x, p, prec, false, r[0], r[1], rowEpi{}, false)
			requireSameBits(t, got, want, "tier=%v %+v in=%dx%d ratio=%d/%d %v", tier, p, h, w, r[0], r[1], prec)
			requireSameBits(t, x, x0, "tier=%v: input written", tier)
			// Tanh after the pool against tanh before it; the inputs are
			// all half-precision values, as an FP16 convolution's are.
			for _, tanhPrec := range []Precision{prec, FP16} {
				act := Tanh(x, tanhPrec)
				got := MaxPoolSampledTanh(x, p, r[0], r[1], prec, tanhPrec)
				requireSameBits(t, got, refPoolPrec(act, p, prec, false, r[0], r[1]),
					"tier=%v %+v in=%dx%d ratio=%d/%d pool %v tanh %v", tier, p, h, w, r[0], r[1], prec, tanhPrec)
				requireSameBits(t, x, x0, "tier=%v: input written", tier)
			}
		}
	})
}

func TestPoolSampledSubset(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 100,
		2, 200,
	}, 1, 1, 2, 2)
	// 50% sampling keeps window elements 0 and 2 ((i*1)%2 < 1 → even i).
	y := MaxPoolSampled(x, PoolParams{KH: 2, KW: 2}, 1, 2, FP32)
	if y.Data()[0] != 2 {
		t.Fatalf("sampled max = %v, want 2 (max over elements {1,2})", y.Data()[0])
	}
	a := AvgPoolSampled(x, PoolParams{KH: 2, KW: 2}, 1, 2, FP32)
	if a.Data()[0] != 1.5 {
		t.Fatalf("sampled avg = %v, want 1.5", a.Data()[0])
	}
}

func TestPoolSampledRatios(t *testing.T) {
	g := tensor.NewRNG(11)
	x := tensor.New(1, 2, 8, 8)
	g.FillNormal(x, 0, 1)
	exact := AvgPool(x, PoolParams{KH: 2, KW: 2}, FP32)
	for _, r := range []struct{ num, den int }{{1, 2}, {2, 5}, {1, 4}} {
		s := AvgPoolSampled(x, PoolParams{KH: 2, KW: 2}, r.num, r.den, FP32)
		if !s.Shape().Equal(exact.Shape()) {
			t.Fatalf("ratio %d/%d changed shape", r.num, r.den)
		}
	}
}

func TestBatchNorm(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	bp := BatchNormParams{
		Gamma: tensor.FromSlice([]float32{2}, 1),
		Beta:  tensor.FromSlice([]float32{1}, 1),
		Mean:  tensor.FromSlice([]float32{2.5}, 1),
		Var:   tensor.FromSlice([]float32{1}, 1),
		Eps:   0,
	}
	y := BatchNorm(x, bp, FP32)
	// y = 2*(x-2.5)/sqrt(1+1e-5) + 1
	want := []float32{-2, 0, 2, 4}
	for i, v := range y.Data() {
		if math.Abs(float64(v-(want[i]+1-1))) > 1e-3 {
			t.Fatalf("BatchNorm elem %d = %v, want ~%v", i, v, want[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	g := tensor.NewRNG(12)
	x := tensor.New(4, 10)
	g.FillNormal(x, 0, 5)
	y := Softmax(x, FP32)
	for r := 0; r < 4; r++ {
		var sum float64
		for _, v := range y.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	g := tensor.NewRNG(13)
	x := tensor.New(8, 10)
	g.FillNormal(x, 0, 3)
	y := Softmax(x, FP32)
	xa, ya := x.RowArgMax(), y.RowArgMax()
	for i := range xa {
		if xa[i] != ya[i] {
			t.Fatalf("row %d: softmax moved argmax %d -> %d", i, xa[i], ya[i])
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	y := Softmax(x, FP32)
	var sum float64
	for _, v := range y.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestReduceKinds(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	if got := Reduce(x, ReduceSum, 1, 1, FP32).Data()[0]; got != 10 {
		t.Errorf("ReduceSum = %v, want 10", got)
	}
	if got := Reduce(x, ReduceMean, 1, 1, FP32).Data()[0]; got != 2.5 {
		t.Errorf("ReduceMean = %v, want 2.5", got)
	}
	if got := Reduce(x, ReduceMax, 1, 1, FP32).Data()[0]; got != 4 {
		t.Errorf("ReduceMax = %v, want 4", got)
	}
}

func TestReduceSampledSumRescaled(t *testing.T) {
	// Constant input: sampled-and-rescaled sum must equal the exact sum.
	x := tensor.New(1, 1, 4, 4)
	x.Fill(2)
	exact := Reduce(x, ReduceSum, 1, 1, FP32).Data()[0]
	for _, r := range []struct{ num, den int }{{1, 2}, {2, 5}, {1, 4}} {
		got := Reduce(x, ReduceSum, r.num, r.den, FP32).Data()[0]
		if math.Abs(float64(got-exact)) > 1e-4 {
			t.Errorf("ratio %d/%d: sampled sum %v, want %v", r.num, r.den, got, exact)
		}
	}
}

func TestReduceMeanSampledOnConstant(t *testing.T) {
	x := tensor.New(1, 1, 5, 5)
	x.Fill(3)
	for _, r := range []struct{ num, den int }{{1, 2}, {2, 5}, {1, 4}} {
		got := Reduce(x, ReduceMean, r.num, r.den, FP32).Data()[0]
		if got != 3 {
			t.Errorf("ratio %d/%d: sampled mean %v, want 3", r.num, r.den, got)
		}
	}
}

func TestFlatten(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	y := Flatten(x)
	if y.Rank() != 2 || y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
}

func TestFP16VariantsQuantizeOutput(t *testing.T) {
	g := tensor.NewRNG(14)
	x := tensor.New(1, 2, 4, 4)
	g.FillNormal(x, 0, 1)
	outs := []*tensor.Tensor{
		ReLU(x, FP16),
		Tanh(x, FP16),
		MaxPool(x, PoolParams{KH: 2, KW: 2}, FP16),
		AvgPool(x, PoolParams{KH: 2, KW: 2}, FP16),
		Reduce(x, ReduceMean, 1, 1, FP16),
	}
	for oi, o := range outs {
		for i, v := range o.Data() {
			if tensor.QuantizeFP16(v) != v {
				t.Fatalf("output %d elem %d = %v not half-representable", oi, i, v)
			}
		}
	}
}

// TestMaxPoolHalfInputSkipsRound: over every half-precision value — NaNs,
// ±0, ±Inf and the subnormals included — an FP16 max pool that skips its
// input round (MaxPoolSampledHalf, and MaxPoolSampledTanh at FP16) returns
// the bits of the one that rounds, on every tier, for two geometries and
// every sampling ratio. One plane holds the values in order, so that the
// NaNs fill whole windows; the other shuffles them.
func TestMaxPoolHalfInputSkipsRound(t *testing.T) {
	x := tensor.New(2, 1, 256, 256)
	xd := x.Data()
	for h := range 1 << 16 {
		xd[h] = tensor.F16ToF32(uint16(h))
		xd[1<<16+h] = xd[h]
	}
	g := tensor.NewRNG(71)
	mixed := xd[1<<16:]
	for i := len(mixed) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		mixed[i], mixed[j] = mixed[j], mixed[i]
	}
	x0 := x.Clone()
	forEachTier(t, func(t *testing.T) {
		for _, p := range []PoolParams{{KH: 2, KW: 2}, {KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}} {
			for _, r := range poolRatios {
				want := poolSampled(x, p, FP16, false, r[0], r[1], rowEpi{}, false)
				requireSameBits(t, MaxPoolSampledHalf(x, p, r[0], r[1]), want, "%+v ratio %v", p, r)
				want = poolSampled(x, p, FP16, false, r[0], r[1], rowEpi{flags: epiTanh | epiQuant}, false)
				requireSameBits(t, MaxPoolSampledTanh(x, p, r[0], r[1], FP16, FP16), want, "%+v ratio %v tanh", p, r)
				requireSameBits(t, x, x0, "%+v: input written", p)
			}
		}
	})
}

// TestConvHalfInputSkipsRound: over every half-precision value — NaNs, ±0,
// ±Inf and the subnormals included — an FP16 convolution or dense layer
// told that its input holds half values (Epilogue.HalfIn) returns the bits
// of the one that rounds it, on every tier: exact, filter-sampled and
// perforated convolutions, and dense layers through the four-row tile and
// the row kernel. One image holds the values in order, so that the NaNs and
// infinities fill whole patches; the other shuffles them.
func TestConvHalfInputSkipsRound(t *testing.T) {
	x := tensor.New(2, 4, 128, 128)
	xd := x.Data()
	for h := range 1 << 16 {
		xd[h] = tensor.F16ToF32(uint16(h))
		xd[1<<16+h] = xd[h]
	}
	g := tensor.NewRNG(73)
	mixed := xd[1<<16:]
	for i := len(mixed) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		mixed[i], mixed[j] = mixed[j], mixed[i]
	}
	x0 := x.Clone()
	w := randTensor(g, 8, 4, 3, 3)
	ep := Epilogue{Bias: randTensor(g, 8), Act: ActClippedReLU, Clip: 6}
	half := ep
	half.HalfIn = true
	p := ConvParams{PadH: 1, PadW: 1}
	dense := []struct{ x, w *tensor.Tensor }{
		{Flatten(x), randTensor(g, 1<<16, 12)},                      // two rows: the row kernel
		{tensor.FromSlice(xd, 16, 1<<13), randTensor(g, 1<<13, 12)}, // a four-row tile and a tail
	}
	forEachTier(t, func(t *testing.T) {
		for _, k := range []struct {
			name string
			run  func(ep Epilogue) *tensor.Tensor
		}{
			{"exact", func(ep Epilogue) *tensor.Tensor { return Conv2DFused(x, w, p, FP16, ep) }},
			{"samp50", func(ep Epilogue) *tensor.Tensor { return Conv2DFilterSamplingFused(x, w, p, 2, 0, FP16, ep) }},
			{"perf-rows", func(ep Epilogue) *tensor.Tensor {
				return Conv2DPerforatedFused(x, w, p, PerfRows, 2, 0, FP16, ep)
			}},
			{"perf-cols", func(ep Epilogue) *tensor.Tensor {
				return Conv2DPerforatedFused(x, w, p, PerfCols, 3, 1, FP16, ep)
			}},
		} {
			requireSameBits(t, k.run(half), k.run(ep), "%s", k.name)
			requireSameBits(t, x, x0, "%s: input written", k.name)
		}
		for i, d := range dense {
			dep := Epilogue{Bias: randTensor(tensor.NewRNG(int64(i)), 12), Act: ActReLU}
			want := MatMulFused(d.x, d.w, FP16, dep)
			dep.HalfIn = true
			requireSameBits(t, MatMulFused(d.x, d.w, FP16, dep), want, "dense %v", d.x.Shape())
			requireSameBits(t, x, x0, "dense %v: input written", d.x.Shape())
		}
	})
}
