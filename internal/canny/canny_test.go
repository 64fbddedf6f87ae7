package canny

import (
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

func TestPipelineStructure(t *testing.T) {
	g := Pipeline(3, 0.08, 0.2)
	if errs := g.ValidateDeep(tensor.NewShape(1, 3, 16, 16)); len(errs) != 0 {
		t.Fatalf("ValidateDeep: %v", errs)
	}
	// 4 convolutions: grayscale, gaussian, sobel x, sobel y.
	convs := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpConv {
			convs++
		}
	}
	if convs != 4 {
		t.Errorf("pipeline has %d convs, want 4", convs)
	}
}

func TestPipelineProducesBinaryEdges(t *testing.T) {
	g := Pipeline(1, 0.08, 0.2)
	rng := tensor.NewRNG(1)
	// A step edge: left half dark, right half bright.
	in := tensor.New(1, 1, 16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			in.Set(1, 0, 0, y, x)
		}
	}
	_ = rng
	out := g.Execute(in, nil, graph.ExecOptions{})
	ones, zeros := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("non-binary edge value %v", v)
		}
	}
	if ones == 0 {
		t.Error("step edge produced no edge pixels")
	}
	if zeros == 0 {
		t.Error("everything is an edge")
	}
	// The edge should be a thin vertical band near column 8: count edge
	// pixels per column.
	colCount := make([]int, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if out.At(0, 0, y, x) == 1 {
				colCount[x]++
			}
		}
	}
	peak := 0
	for x, c := range colCount {
		if c > colCount[peak] {
			peak = x
		}
		_ = c
	}
	if peak < 6 || peak > 9 {
		t.Errorf("edge detected at column %d, want near 8 (%v)", peak, colCount)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	w := tensor.New(1, 1, 5, 5)
	fillGaussian(w, 1.0)
	var sum float64
	for _, v := range w.Data() {
		if v <= 0 {
			t.Fatal("gaussian weights must be positive")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("kernel sums to %v, want 1", sum)
	}
	// center is the max
	if w.At(0, 0, 2, 2) <= w.At(0, 0, 0, 0) {
		t.Error("center weight should dominate corners")
	}
}

func buildComposite(t testing.TB) *Composite {
	t.Helper()
	b := models.MustBuild("alexnet2", models.Scale{Images: 16, Width: 0.125, ImageNetSize: 32, Seed: 21})
	c, err := NewComposite(b, b.BaselineAcc-15, 15)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompositeOpsDisjoint(t *testing.T) {
	c := buildComposite(t)
	ops := c.Ops()
	seen := map[int]bool{}
	for _, op := range ops {
		if seen[op] {
			t.Fatalf("duplicate op id %d", op)
		}
		seen[op] = true
	}
	// CNN ops + 4 canny convs and friends
	if len(ops) <= len(c.CNN.ApproxOps()) {
		t.Error("composite must expose canny ops too")
	}
}

func TestCompositeBaselineScores(t *testing.T) {
	c := buildComposite(t)
	out := c.Run(nil, core.Calib, nil)
	acc, psnr := c.Decode(core.Calib, out)
	if acc < 50 {
		t.Errorf("baseline accuracy %v suspiciously low", acc)
	}
	if psnr != 100 {
		t.Errorf("baseline PSNR = %v, want 100 (edge maps identical to gold)", psnr)
	}
	if c.Score(core.Calib, out) <= 0 {
		t.Error("baseline must be feasible")
	}
}

func TestCompositeApproximationLowersPSNR(t *testing.T) {
	c := buildComposite(t)
	// Perforate the gaussian blur heavily.
	var gaussianOp int
	for _, n := range c.Canny.Nodes {
		if n.Name == "gaussian" {
			gaussianOp = n.ID + len(c.CNN.Nodes)
		}
	}
	cfg := approx.Config{gaussianOp: approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32)}
	out := c.Run(cfg, core.Calib, nil)
	_, psnr := c.Decode(core.Calib, out)
	if psnr >= 100 {
		t.Errorf("perforated blur should lower PSNR, got %v", psnr)
	}
	if psnr < 5 {
		t.Errorf("PSNR %v collapsed entirely", psnr)
	}
}

func TestCompositeVariableOutputShape(t *testing.T) {
	c := buildComposite(t)
	if c.FixedOutputShape() {
		t.Fatal("composite must report variable output shapes (Π1 unsupported, §7.6)")
	}
	// Different configs can route different image subsets → different
	// output sizes. Verify the decoder handles the baseline correctly and
	// a CNN-perturbing config still decodes.
	cfg := approx.Config{}
	for _, op := range c.CNN.ApproxOps() {
		if c.OpClass(op) == approx.OpConv {
			cfg[op] = approx.PerforationKnob(tensorops.PerfCols, 2, 1, tensorops.FP32)
		}
	}
	out := c.Run(cfg, core.Calib, nil)
	acc, psnr := c.Decode(core.Calib, out)
	if acc < 0 || acc > 100 {
		t.Errorf("acc = %v", acc)
	}
	if psnr <= 0 {
		t.Errorf("psnr = %v", psnr)
	}
}

func TestCompositeTunesWithPi2(t *testing.T) {
	c := buildComposite(t)
	res, err := core.PredictiveTune(c, core.Options{
		QoSMin:     0,
		Model:      predictor.Pi2,
		NCalibrate: 5,
		MaxIters:   120,
		StallLimit: 60,
		MaxConfigs: 10,
		Policy:     core.KnobPolicy{AllowFP16: true},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() == 0 {
		t.Fatal("composite tuning produced no feasible configurations")
	}
	for _, pt := range res.Curve.Points {
		if pt.QoS <= 0 {
			t.Errorf("infeasible point shipped: margin %v", pt.QoS)
		}
	}
}

func TestCompositePi1Rejected(t *testing.T) {
	c := buildComposite(t)
	_, err := core.PredictiveTune(c, core.Options{
		QoSMin: 0, Model: predictor.Pi1, MaxIters: 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("Π1 must be rejected for the composite benchmark")
	}
}

func TestImageMapOps(t *testing.T) {
	x := tensor.FromSlice([]float32{-2, 3}, 2)
	a := tensorops.Abs(x, tensorops.FP32)
	if a.Data()[0] != 2 || a.Data()[1] != 3 {
		t.Errorf("Abs = %v", a.Data())
	}
	s := tensorops.Sqrt(tensor.FromSlice([]float32{4, -1}, 2), tensorops.FP32)
	if s.Data()[0] != 2 || s.Data()[1] != 0 {
		t.Errorf("Sqrt = %v", s.Data())
	}
	m := tensorops.Mul(tensor.FromSlice([]float32{2, 3}, 2), tensor.FromSlice([]float32{4, 5}, 2), tensorops.FP32)
	if m.Data()[0] != 8 || m.Data()[1] != 15 {
		t.Errorf("Mul = %v", m.Data())
	}
}

func TestHysteresisPromotion(t *testing.T) {
	// A weak pixel adjacent to a strong one becomes an edge; an isolated
	// weak pixel does not.
	mag := tensor.New(1, 1, 3, 5)
	mag.Set(0.5, 0, 0, 1, 1) // strong (hi=0.3)
	mag.Set(0.2, 0, 0, 1, 2) // weak, adjacent to strong
	mag.Set(0.2, 0, 0, 1, 4) // weak, isolated
	out := tensorops.Hysteresis(mag, 0.1, 0.3, tensorops.FP32)
	if out.At(0, 0, 1, 1) != 1 {
		t.Error("strong pixel must be an edge")
	}
	if out.At(0, 0, 1, 2) != 1 {
		t.Error("weak neighbor of strong must be promoted")
	}
	if out.At(0, 0, 1, 4) != 0 {
		t.Error("isolated weak pixel must be suppressed")
	}
}

func TestNMSKeepsRidge(t *testing.T) {
	// Horizontal gradient: a vertical ridge of magnitude; NMS should keep
	// the ridge column and zero its neighbors.
	mag := tensor.New(1, 1, 5, 5)
	gx := tensor.New(1, 1, 5, 5)
	gy := tensor.New(1, 1, 5, 5)
	for y := 0; y < 5; y++ {
		mag.Set(0.5, 0, 0, y, 1)
		mag.Set(1.0, 0, 0, y, 2)
		mag.Set(0.5, 0, 0, y, 3)
		for x := 0; x < 5; x++ {
			gx.Set(1, 0, 0, y, x) // purely horizontal gradient
		}
	}
	out := tensorops.NonMaxSuppress(mag, gx, gy, tensorops.FP32)
	for y := 0; y < 5; y++ {
		if out.At(0, 0, y, 2) != 1.0 {
			t.Errorf("ridge peak lost at row %d", y)
		}
		if out.At(0, 0, y, 1) != 0 || out.At(0, 0, y, 3) != 0 {
			t.Errorf("ridge flanks not suppressed at row %d", y)
		}
	}
}

func TestCompositeRunSuffixMatchesRun(t *testing.T) {
	c := buildComposite(t)
	// A CNN conv op and a Canny conv op, one non-trivial knob each.
	cnnOp := c.CNN.ApproxOps()[0]
	var cannyOp int
	for _, n := range c.Canny.Nodes {
		if n.Name == "sobel_x" {
			cannyOp = n.ID + len(c.CNN.Nodes)
		}
	}
	for _, op := range []int{cnnOp, cannyOp} {
		knob := approx.SamplingKnob(2, 1, tensorops.FP32)
		fast := c.RunSuffix(op, knob, core.Calib, nil)
		slow := c.Run(approx.Config{op: knob}, core.Calib, nil)
		if !tensor.Equal(fast, slow, 1e-6) {
			t.Fatalf("op %d: RunSuffix diverges from Run (%d vs %d elems)", op, fast.Elems(), slow.Elems())
		}
	}
}

func TestCompositeGoldShortcut(t *testing.T) {
	// With an exact Canny configuration, Run must produce exactly the
	// gold edge maps (the gather shortcut must be a no-op semantically).
	c := buildComposite(t)
	cnnOp := c.CNN.ApproxOps()[1]
	cfg := approx.Config{cnnOp: approx.KnobFP16} // perturb CNN only
	out := c.Run(cfg, core.Calib, nil)
	_, psnr := c.Decode(core.Calib, out)
	if psnr != 100 {
		t.Errorf("exact Canny stage should give gold edges (PSNR 100), got %v", psnr)
	}
}

func TestCompositeSetThresholds(t *testing.T) {
	c := buildComposite(t)
	accBase, psnrBase := c.BaselinePair(core.Calib)
	if psnrBase != 100 {
		t.Fatalf("baseline PSNR = %v", psnrBase)
	}
	c.SetThresholds(accBase-1, 20)
	out := c.Run(nil, core.Calib, nil)
	if got := c.Score(core.Calib, out); got <= 0 {
		t.Errorf("baseline infeasible after SetThresholds: margin %v", got)
	}
	c.SetThresholds(accBase+1, 20) // impossible accuracy bar
	if got := c.Score(core.Calib, out); got > 0 {
		t.Errorf("impossible threshold should be infeasible, margin %v", got)
	}
}

// TestPipelineStoresEveryElement: the stencils behind the pipeline's pooled
// outputs (the gradient product, non-maximum suppression and hysteresis,
// which leave most pixels at 0) must store every element, since pooled
// buffers arrive uncleared: with every drawn buffer filled with a NaN
// pattern (tensor.PoisonDraws), the exact and the all-FP16 pipeline return
// the bits they return without it.
func TestPipelineStoresEveryElement(t *testing.T) {
	g := Pipeline(3, 0.08, 0.2)
	in := tensor.New(2, 3, 24, 24)
	tensor.NewRNG(9).FillNormal(in, 0.5, 0.3)
	for i := range in.Data()[:len(in.Data())/2] {
		in.Data()[i] = 0 // a flat region: zero gradients
	}
	half := approx.Config{}
	for _, n := range g.Nodes[1:] {
		half[n.ID] = approx.KnobFP16
	}
	for _, cfg := range []approx.Config{nil, half} {
		want := g.Execute(in, cfg, graph.ExecOptions{})
		prev := tensor.PoisonDraws(true)
		got := g.Execute(in, cfg, graph.ExecOptions{})
		tensor.PoisonDraws(prev)
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("fp16=%v: element %d is %v poisoned, %v clean", cfg != nil, i, got.Data()[i], v)
			}
		}
	}
}
