package tensorops_test

import (
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// negTiny is −2⁻²⁸. The convolution computes it as 2⁻¹⁴·(−2⁻¹⁴) from
// half-precision operands, so an FP16 convolution rounds it to −0 while an
// FP32 one keeps it.
const negTiny = -1.0 / (1 << 28)

// tanhPoolWindows are the pre-activation values of 2×2 windows, in tap
// order, that the tanh-after-pool rewrite must survive.
var tanhPoolWindows = func() [][4]float32 {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	return [][4]float32{
		{negTiny, 0, negTiny, 0},             // ±0 tie, −0 first under FP16
		{0, negTiny, 0, negTiny},             // ±0 tie, +0 first
		{-1, negTiny, -1, -1},                // the pair (−1, −0)
		{negTiny, -1, -2, -3},                // −0 above negatives
		{nan, nan, nan, nan},                 // no tap is kept: −Inf
		{nan, -inf, nan, nan},                // one real −Inf: tanh gives −1
		{-inf, -inf, -inf, -inf},             // all −Inf
		{-inf, nan, -5, nan},                 // −Inf beside a finite tap
		{10, 12, 9.5, 11},                    // tanh32's saturated plateau
		{-10, -12, -9.5, -20},                // its negative plateau
		{4.5, 5, 6, 4.5},                     // a plateau only after the FP16 round
		{nan, 3, nan, -2},                    // NaN beside finite taps
		{inf, 1, nan, 2},                     // +Inf
		{0.3, 0.1, 0.30000001, -0.7},         // values no FP16 round keeps
		{negTiny, negTiny, negTiny, negTiny}, // all −0 under FP16
		{1e-30, 0, -1e-30, 0},                // tiny FP32 values the input round zeroes
	}
}()

// tanhPoolInput lays the windows out over one (8 × 16) plane, two input
// channels: the convolution's weights (1, 2⁻¹⁴) make x0 + 2⁻¹⁴·x1 of it.
func tanhPoolInput() *tensor.Tensor {
	const h, w = 8, 16
	in := tensor.New(1, 2, h, w)
	x0, x1 := in.Data()[:h*w], in.Data()[h*w:]
	for i, win := range tanhPoolWindows {
		oy, ox := i/(w/2), i%(w/2)
		for t, v := range win {
			at := (2*oy+t/2)*w + 2*ox + t%2
			if v == negTiny {
				x1[at] = -1.0 / (1 << 14)
			} else {
				x0[at] = v
			}
		}
	}
	return in
}

// tanhPoolNet is input → 1×1 convolution with co output channels, a bias of
// −0 (which keeps every value, −0 included) and act fused → max pool p.
func tanhPoolNet(co int, act graph.Activation, p tensorops.PoolParams) (g *graph.Graph, conv, pool int) {
	g = graph.New("tanhpool")
	wt := tensor.New(co, 2, 1, 1)
	bias := tensor.New(co)
	for c := 0; c < co; c++ {
		wt.Data()[2*c], wt.Data()[2*c+1] = 1, 1.0/(1<<14)
		bias.Data()[c] = float32(math.Copysign(0, -1))
	}
	conv = g.ConvAct(g.InputID(), wt, bias, tensorops.ConvParams{}, act, 0, "conv")
	pool = g.MaxPool(conv, p)
	return g, conv, pool
}

// TestTanhAfterPoolSpecialValues runs conv → tanh → max pool over
// tanhPoolWindows under every tier, both convolution precisions and every
// max-pool knob (FP32, FP16, reduction sampling at either precision), for
// a one-channel convolution (tap sums) and a four-channel one (GEMM), with
// and without border windows — which reduction sampling can leave with no
// tap inside the input. Execute and ExecuteFrom, started at the
// convolution and at the pool, must return ExecuteAll's bits, and the
// graph.tanh_past_pool counter shows which ran the rewrite: every pair but
// an FP32 convolution under an FP16 pool, and never a ReLU convolution.
func TestTanhAfterPoolSpecialValues(t *testing.T) {
	moves := obs.Default.Counter("graph.tanh_past_pool")
	in := tanhPoolInput()
	poolKnobs := []approx.KnobID{approx.KnobFP32, approx.KnobFP16}
	for i := 0; i < 3; i++ {
		poolKnobs = append(poolKnobs, approx.ReduceSamplingKnob(i, tensorops.FP32), approx.ReduceSamplingKnob(i, tensorops.FP16))
	}
	geoms := []tensorops.PoolParams{{KH: 2, KW: 2}, {KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}}
	tensorops.ForEachTier(t, func(t *testing.T) {
		acts := map[graph.Activation]string{graph.ActTanh: "tanh", graph.ActReLU: "relu"}
		for act, actName := range acts {
			for _, co := range []int{1, 4} {
				for _, geom := range geoms {
					g, conv, pool := tanhPoolNet(co, act, geom)
					for _, ck := range []approx.KnobID{approx.KnobFP32, approx.KnobFP16} {
						for _, pk := range poolKnobs {
							cfg := approx.Config{conv: ck, pool: pk}
							fp32Conv := approx.MustLookup(ck).Prec == tensorops.FP32
							fp16Pool := approx.MustLookup(pk).Prec == tensorops.FP16
							moved := act == graph.ActTanh && !(fp32Conv && fp16Pool)
							name := approx.MustLookup(ck).Name() + "+" + approx.MustLookup(pk).Name()

							base := g.ExecuteAll(in, cfg, graph.ExecOptions{})
							want := base[g.Output]
							before := moves.Value()
							got := map[string]*tensor.Tensor{
								"Execute":           g.Execute(in, cfg, graph.ExecOptions{}),
								"ExecuteFrom(conv)": g.ExecuteFrom(base, conv, cfg, graph.ExecOptions{}),
								"ExecuteFrom(pool)": g.ExecuteFrom(base, pool, cfg, graph.ExecOptions{}),
							}
							for how, out := range got {
								for i, v := range out.Data() {
									if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
										t.Fatalf("%s co=%d pool %+v %s: %s [%d] = %v (%#08x), ExecuteAll %v (%#08x)",
											actName, co, geom, name, how, i, v, math.Float32bits(v), want.Data()[i], math.Float32bits(want.Data()[i]))
									}
								}
							}
							// Execute and ExecuteFrom(conv) run both nodes;
							// ExecuteFrom(pool) reads the activated base value.
							wantMoves := int64(0)
							if moved {
								wantMoves = 2
							}
							if n := moves.Value() - before; n != wantMoves {
								t.Errorf("%s co=%d pool %+v %s: %d pools took the tanh, want %d", actName, co, geom, name, n, wantMoves)
							}
						}
					}
				}
			}
		}
	})
}
