package graph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// tinyNet builds a small conv→pool→conv→fc→softmax network for tests.
func tinyNet(g *tensor.RNG) *Graph {
	gr := New("tiny")
	w1 := tensor.New(4, 1, 3, 3)
	g.FillHe(w1, 9)
	b1 := tensor.New(4)
	g.FillNormal(b1, 0, 0.1)
	c1 := gr.ConvAct(gr.InputID(), w1, b1, tensorops.ConvParams{PadH: 1, PadW: 1}, ActReLU, 0, "conv1")
	p1 := gr.MaxPool(c1, tensorops.PoolParams{KH: 2, KW: 2})
	w2 := tensor.New(8, 4, 3, 3)
	g.FillHe(w2, 36)
	c2 := gr.ConvAct(p1, w2, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, ActReLU, 0, "conv2")
	p2 := gr.MaxPool(c2, tensorops.PoolParams{KH: 2, KW: 2})
	fl := gr.Flatten(p2)
	wf := tensor.New(8*2*2, 10)
	g.FillXavier(wf, 32, 10)
	fc := gr.MatMul(fl, wf, nil, "fc")
	gr.Softmax(fc)
	return gr
}

func TestBuildAndValidate(t *testing.T) {
	gr := tinyNet(tensor.NewRNG(1))
	if errs := gr.ValidateDeep(tensor.NewShape(2, 1, 8, 8)); len(errs) != 0 {
		t.Fatalf("ValidateDeep: %v", errs)
	}
	if gr.LayerCount() != 3 {
		t.Errorf("LayerCount = %d, want 3 (2 conv + 1 fc)", gr.LayerCount())
	}
	ops := gr.ApproxOps()
	// conv1, pool1, conv2, pool2, fc are approximable; softmax/flatten not.
	if len(ops) != 5 {
		t.Errorf("ApproxOps = %v, want 5 entries", ops)
	}
}

func TestExecuteBaselineShapes(t *testing.T) {
	rng := tensor.NewRNG(2)
	gr := tinyNet(rng)
	in := tensor.New(3, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	out := gr.Execute(in, nil, ExecOptions{})
	if out.Rank() != 2 || out.Dim(0) != 3 || out.Dim(1) != 10 {
		t.Fatalf("output shape %v, want (3x10)", out.Shape())
	}
	// softmax rows sum to 1
	for r := 0; r < 3; r++ {
		var sum float64
		for _, v := range out.Row(r) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	rng := tensor.NewRNG(3)
	gr := tinyNet(rng)
	in := tensor.New(2, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	a := gr.Execute(in, nil, ExecOptions{})
	b := gr.Execute(in, nil, ExecOptions{})
	if !tensor.Equal(a, b, 0) {
		t.Fatal("baseline execution must be deterministic")
	}
}

func TestExecuteWithApproximationsChangesOutput(t *testing.T) {
	rng := tensor.NewRNG(4)
	gr := tinyNet(rng)
	in := tensor.New(2, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	base := gr.Execute(in, nil, ExecOptions{})
	convOp := gr.ApproxOps()[0]
	for _, kid := range []approx.KnobID{
		approx.KnobFP16,
		approx.SamplingKnob(2, 0, tensorops.FP32),
		approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32),
	} {
		cfg := approx.Config{convOp: kid}
		out := gr.Execute(in, cfg, ExecOptions{})
		if !out.Shape().Equal(base.Shape()) {
			t.Fatalf("knob %d changed output shape", kid)
		}
		if tensor.Equal(out, base, 1e-9) && kid != approx.KnobFP16 {
			t.Errorf("knob %d produced identical output", kid)
		}
	}
}

func TestExecutePromiseNeedsRNG(t *testing.T) {
	rng := tensor.NewRNG(5)
	gr := tinyNet(rng)
	in := tensor.New(1, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	cfg := approx.Config{gr.ApproxOps()[0]: approx.PromiseKnob(1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PROMISE without RNG should panic")
			}
		}()
		gr.Execute(in, cfg, ExecOptions{})
	}()
	out := gr.Execute(in, cfg, ExecOptions{RNG: tensor.NewRNG(6)})
	base := gr.Execute(in, nil, ExecOptions{})
	if tensor.Equal(out, base, 1e-9) {
		t.Error("PROMISE execution should perturb the output")
	}
}

func TestPromiseErrorOrdering(t *testing.T) {
	// Lower voltage levels must produce larger end-to-end output error.
	rng := tensor.NewRNG(7)
	gr := tinyNet(rng)
	in := tensor.New(4, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	base := gr.Execute(in, nil, ExecOptions{})
	op := gr.ApproxOps()[0]
	var mseP1, mseP7 float64
	for trial := 0; trial < 5; trial++ {
		o1 := gr.Execute(in, approx.Config{op: approx.PromiseKnob(1)}, ExecOptions{RNG: tensor.NewRNG(int64(100 + trial))})
		o7 := gr.Execute(in, approx.Config{op: approx.PromiseKnob(7)}, ExecOptions{RNG: tensor.NewRNG(int64(200 + trial))})
		mseP1 += tensor.MSE(o1, base)
		mseP7 += tensor.MSE(o7, base)
	}
	if mseP1 <= mseP7 {
		t.Errorf("P1 error (%g) should exceed P7 error (%g)", mseP1, mseP7)
	}
}

func TestInvalidKnobPanics(t *testing.T) {
	rng := tensor.NewRNG(8)
	gr := tinyNet(rng)
	in := tensor.New(1, 1, 8, 8)
	// Perforation on a matmul is invalid.
	fcOp := gr.ApproxOps()[4]
	cfg := approx.Config{fcOp: approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic applying perforation to matmul")
		}
	}()
	gr.Execute(in, cfg, ExecOptions{})
}

func TestValidateConfig(t *testing.T) {
	rng := tensor.NewRNG(9)
	gr := tinyNet(rng)
	ops := gr.ApproxOps()
	good := approx.Config{ops[0]: approx.SamplingKnob(3, 1, tensorops.FP16)}
	if err := gr.ValidateConfig(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := approx.Config{ops[4]: approx.SamplingKnob(3, 1, tensorops.FP16)} // sampling on matmul
	if err := gr.ValidateConfig(bad); err == nil {
		t.Error("sampling knob on matmul should be rejected")
	}
	oob := approx.Config{999: approx.KnobFP16}
	if err := gr.ValidateConfig(oob); err == nil {
		t.Error("out-of-range op should be rejected")
	}
	if err := gr.ValidateConfig(approx.Config{ops[1]: approx.ReduceSamplingKnob(0, tensorops.FP32)}); err != nil {
		t.Errorf("reduction sampling on pool rejected: %v", err)
	}
}

func TestInferShapesMatchExecution(t *testing.T) {
	rng := tensor.NewRNG(10)
	gr := tinyNet(rng)
	in := tensor.New(2, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	shapes, err := gr.InferShapes(in.Shape())
	if err != nil {
		t.Fatalf("InferShapes: %v", err)
	}
	// Execute and compare every node's shape via a manual sweep.
	out := gr.Execute(in, nil, ExecOptions{})
	if !shapes[gr.Output].Equal(out.Shape()) {
		t.Fatalf("inferred output shape %v, executed %v", shapes[gr.Output], out.Shape())
	}
}

func TestCostsPositiveAndConvDominated(t *testing.T) {
	rng := tensor.NewRNG(11)
	gr := tinyNet(rng)
	costs, err := gr.Costs(tensor.NewShape(1, 1, 8, 8))
	if err != nil {
		t.Fatalf("Costs: %v", err)
	}
	var convNc, otherNc float64
	for _, n := range gr.Nodes {
		c := costs[n.ID]
		if n.Kind != OpInput && n.Kind != OpFlatten && (c.Nc <= 0 || c.Nm <= 0) {
			t.Errorf("node %q has non-positive cost %+v", n.Name, c)
		}
		if n.Kind == OpConv {
			convNc += c.Nc
		} else {
			otherNc += c.Nc
		}
	}
	if convNc <= otherNc {
		t.Errorf("convolutions should dominate compute: conv=%g other=%g", convNc, otherNc)
	}
}

func TestConvCostFormula(t *testing.T) {
	gr := New("c")
	w := tensor.New(2, 3, 3, 3)
	gr.Conv(gr.InputID(), w, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, "conv")
	costs, err := gr.Costs(tensor.NewShape(1, 3, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// out 1x2x4x4 = 32 elems; MACs = 32*3*3*3 = 864; Nc = 1728.
	if got := costs[1].Nc; got != 1728 {
		t.Errorf("conv Nc = %g, want 1728", got)
	}
	wantNm := float64(1*3*4*4 + 2*3*3*3 + 32)
	if got := costs[1].Nm; got != wantNm {
		t.Errorf("conv Nm = %g, want %g", got, wantNm)
	}
}

func TestTotalMACs(t *testing.T) {
	rng := tensor.NewRNG(12)
	gr := tinyNet(rng)
	in := tensor.NewShape(1, 1, 8, 8)
	full, err := gr.TotalMACs(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	halved, err := gr.TotalMACs(in, func(op int) float64 { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(halved*2-full) > 1e-6 {
		t.Errorf("rc=2 should halve MACs: full=%g halved=%g", full, halved)
	}
}

func TestOpClassesAlignWithApproxOps(t *testing.T) {
	gr := tinyNet(tensor.NewRNG(13))
	ops := gr.ApproxOps()
	classes := gr.OpClasses()
	if len(ops) != len(classes) {
		t.Fatalf("len mismatch: %d ops vs %d classes", len(ops), len(classes))
	}
	for i, op := range ops {
		if gr.Nodes[op].Kind.Class() != classes[i] {
			t.Errorf("class mismatch at %d", i)
		}
	}
}

func TestFP16ConfigOnWholeNet(t *testing.T) {
	rng := tensor.NewRNG(14)
	gr := tinyNet(rng)
	in := tensor.New(2, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	cfg := approx.Config{}
	for _, op := range gr.ApproxOps() {
		cfg[op] = approx.KnobFP16
	}
	base := gr.Execute(in, nil, ExecOptions{})
	half := gr.Execute(in, cfg, ExecOptions{})
	// FP16 should be close to FP32 — small relative error end to end.
	if d := tensor.MSE(half, base); d > 1e-3 {
		t.Errorf("FP16 end-to-end MSE %g too large", d)
	}
}

func TestExecuteFromMatchesFullExecution(t *testing.T) {
	rng := tensor.NewRNG(15)
	gr := tinyNet(rng)
	in := tensor.New(2, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	base := gr.ExecuteAll(in, nil, ExecOptions{})
	for _, op := range gr.ApproxOps() {
		var kid approx.KnobID
		switch gr.Nodes[op].Kind.Class() {
		case approx.OpConv:
			kid = approx.SamplingKnob(2, 1, tensorops.FP32)
		case approx.OpReduce:
			kid = approx.ReduceSamplingKnob(0, tensorops.FP32)
		default:
			kid = approx.KnobFP16
		}
		cfg := approx.Config{op: kid}
		want := gr.Execute(in, cfg, ExecOptions{})
		got := gr.ExecuteFrom(base, op, cfg, ExecOptions{})
		if !tensor.Equal(got, want, 1e-6) {
			t.Fatalf("ExecuteFrom(op=%d) diverges from full execution", op)
		}
	}
}

func TestExecuteAllBaselineOutputs(t *testing.T) {
	rng := tensor.NewRNG(16)
	gr := tinyNet(rng)
	in := tensor.New(1, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	vals := gr.ExecuteAll(in, nil, ExecOptions{})
	out := gr.Execute(in, nil, ExecOptions{})
	if !tensor.Equal(vals[gr.Output], out, 0) {
		t.Fatal("ExecuteAll output node disagrees with Execute")
	}
	for i, v := range vals {
		if v == nil {
			t.Fatalf("node %d has no value", i)
		}
	}
}

// TestLivenessFollowsFlattenViews pins the buffer lifetimes sweep recycles
// by: a Flatten is a view, so it and its input share one owner, whose last
// reader is the last reader of either; a node reading one buffer twice
// counts once; the output's buffer, reached through a Flatten here, is
// never handed back.
func TestLivenessFollowsFlattenViews(t *testing.T) {
	rng := tensor.NewRNG(17)
	gr := New("views")
	w := tensor.New(2, 1, 3, 3)
	rng.FillHe(w, 9)
	c := gr.ConvAct(gr.InputID(), w, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, ActReLU, 0, "conv")
	sq := gr.Mul(c, c)
	fl := gr.Flatten(sq)
	sm := gr.Softmax(fl)
	sum := gr.Add(sm, fl)
	out := gr.Flatten(sum)

	owner, last, _ := gr.liveness()
	for id, want := range map[int]int{c: c, sq: sq, fl: sq, sm: sm, sum: sum, out: sum} {
		if int(owner[id]) != want {
			t.Errorf("owner[%d] = %d, want %d", id, owner[id], want)
		}
	}
	for o, want := range map[int]int{c: sq, sq: sum, sm: sum, sum: -1} {
		if int(last[o]) != want {
			t.Errorf("last[%d] = %d, want %d", o, last[o], want)
		}
	}

	in := tensor.New(2, 1, 4, 4)
	rng.FillNormal(in, 0, 1)
	want := gr.ExecuteAll(in, nil, ExecOptions{})[gr.Output]
	for call := 0; call < 3; call++ {
		if got := gr.Execute(in, nil, ExecOptions{}); !tensor.Equal(got, want, 0) {
			t.Fatalf("call %d: Execute differs from ExecuteAll's output", call)
		}
	}
}

// TestExecuteKeepsCallerBuffers: sweep never recycles the program input,
// a value ExecuteFrom was handed in base, or the output — here a view of
// the input on one graph, and a Flatten of a base value on another.
func TestExecuteKeepsCallerBuffers(t *testing.T) {
	rng := tensor.NewRNG(18)
	id := New("identity")
	id.Flatten(id.InputID())
	in := tensor.New(4, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	keep := in.Clone()
	for call := 0; call < 3; call++ {
		out := id.Execute(in, nil, ExecOptions{})
		if !tensor.Equal(in, keep, 0) || !tensor.Equal(out.Reshape(4, 1, 8, 8), keep, 0) {
			t.Fatalf("call %d: identity graph changed or lost its input", call)
		}
	}

	gr := tinyNet(rng)
	base := gr.ExecuteAll(in, nil, ExecOptions{})
	kept := make([]*tensor.Tensor, len(base))
	for i, v := range base {
		kept[i] = v.Clone()
	}
	fc := gr.ApproxOps()[len(gr.ApproxOps())-1] // reads the Flatten of a base value
	for call := 0; call < 3; call++ {
		gr.ExecuteFrom(base, fc, approx.Config{fc: approx.KnobFP16}, ExecOptions{})
		gr.Execute(in, nil, ExecOptions{})
	}
	for i, v := range base {
		if !tensor.Equal(v, kept[i], 0) {
			t.Fatalf("base value %d (%s) changed", i, gr.Nodes[i].Kind)
		}
	}
}

// TestInvalidateWeightDropsLowering: a convolution's weight keeps what was
// derived from it, the depthwise tap table — weights baked in — among
// them. Rewriting the weight in place and calling InvalidateWeight, as
// StandardizeWeights and models.Prune do, must make the next Execute use
// the new values, under every knob kind: each output must equal that of a
// graph over an unmarked copy of the rewritten weight, which keeps nothing.
func TestInvalidateWeightDropsLowering(t *testing.T) {
	rng := tensor.NewRNG(31)
	build := func(w *tensor.Tensor) *Graph {
		g := New("depthwise")
		g.Conv(g.InputID(), w, nil, tensorops.ConvParams{PadH: 1, PadW: 1, Groups: 8}, "dw")
		return g
	}
	w := tensor.New(8, 1, 3, 3)
	rng.FillNormal(w, 0, 1)
	g := build(w)
	g.PrepackWeights()
	in := tensor.New(2, 8, 10, 10)
	rng.FillNormal(in, 0, 1)
	cfgs := []approx.Config{nil, {1: approx.KnobFP16},
		{1: approx.SamplingKnob(2, 0, tensorops.FP32)},
		{1: approx.PerforationKnob(tensorops.PerfRows, 2, 1, tensorops.FP16)}}
	for _, cfg := range cfgs {
		g.Execute(in, cfg, ExecOptions{}) // builds and keeps the lowering
	}
	for i, v := range w.Data() {
		w.Data()[i] = -2*v + 0.25
	}
	g.Nodes[1].InvalidateWeight()
	fresh := build(w.Clone())
	for i, cfg := range cfgs {
		got, want := g.Execute(in, cfg, ExecOptions{}), fresh.Execute(in, cfg, ExecOptions{})
		if !tensor.Equal(got, want, 0) {
			t.Errorf("config %d: Execute after InvalidateWeight differs from the rewritten weight's output", i)
		}
	}
}

// TestHalfInputFollowsFP16Producers pins which readers skip their FP16
// input round (halfInput) on tinyNet — input, conv1, pool, conv2, pool,
// flatten, fc, softmax: a max pool, convolution or dense layer reading an
// FP16 convolution this sweep ran, directly or through max pools and
// Flattens this sweep ran too. An FP32 convolution, or one below from whose
// value came from base, breaks the chain.
func TestHalfInputFollowsFP16Producers(t *testing.T) {
	gr := tinyNet(tensor.NewRNG(16))
	const conv1, conv2 = 1, 3
	for _, tc := range []struct {
		name string
		fp32 int // a convolution left at FP32, or −1
		from int
		want []int // the nodes that read half values
	}{
		{"all fp16", -1, 0, []int{2, 3, 4, 6}},
		{"conv1 fp32", conv1, 0, []int{4, 6}},
		{"conv2 fp32", conv2, 0, []int{2, 3}},
		{"from conv2", -1, conv2, []int{4, 6}},
		{"from its pool", -1, conv2 + 1, nil},
	} {
		cfg := approx.Config{}
		for _, op := range gr.ApproxOps() {
			cfg[op] = approx.KnobFP16
		}
		if tc.fp32 >= 0 {
			cfg[tc.fp32] = approx.KnobFP32
		}
		var got []int
		for _, n := range gr.Nodes {
			if n.ID >= tc.from && gr.halfInput(n, cfg, tc.from) {
				got = append(got, n.ID)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: half inputs at %v, want %v", tc.name, got, tc.want)
		}
	}
}
