package tensorops

import (
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

func TestPoolMatchesReferenceLoop(t *testing.T) {
	g := tensor.NewRNG(21)
	ratios := [][2]int{{1, 1}, {1, 2}, {2, 5}, {1, 4}, {3, 4}}
	for _, k := range [][2]int{{2, 2}, {3, 3}, {2, 3}, {5, 1}} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				p := PoolParams{KH: k[0], KW: k[1], StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
				for _, hw := range [][2]int{{5, 5}, {7, 4}, {9, 11}} {
					if hw[0]+2*pad < k[0] || hw[1]+2*pad < k[1] {
						continue
					}
					x := randTensor(g, 2, 3, hw[0], hw[1])
					for _, r := range ratios {
						for _, avg := range []bool{false, true} {
							got := poolSampled(x, p, FP32, avg, r[0], r[1])
							requireSameBits(t, got, refPool(x, p, avg, r[0], r[1]),
								"pool %+v in=%v avg=%v ratio=%d/%d", p, hw, avg, r[0], r[1])
						}
					}
				}
			}
		}
	}
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
