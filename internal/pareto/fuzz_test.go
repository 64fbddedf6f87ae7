package pareto_test

import (
	"os"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/tensorops"
)

// FuzzUnmarshalCurve feeds arbitrary bytes to the decoder behind every
// shipped curve and behind POST /v1/curve. Whatever arrives it must not
// panic, and a curve it accepts must (a) survive Marshal → UnmarshalCurve
// unchanged and (b) pass core.CheckCurve's relaxed invariants — sorted by
// Perf, finite, positive, registered knobs — unless it is empty, which CheckCurve
// refuses; the strict check may refuse more but must not panic either.
func FuzzUnmarshalCurve(f *testing.F) {
	shipped, err := os.ReadFile("testdata/lenet_curve.json") // approxtune -benchmark lenet -images 32 -iters 300 -seed 1
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shipped)
	// The bodies internal/serve's tests POST to /v1/curve.
	samp := approx.Config{1: approx.SamplingKnob(2, 0, tensorops.FP16), 3: approx.KnobFP16}
	posted, err := pareto.NewCurve("serve-test", 90, []pareto.Point{
		{QoS: 90, Perf: 1, Config: nil},
		{QoS: 89, Perf: 1.5, Config: approx.Config{1: approx.KnobFP16, 3: approx.KnobFP16}},
		{QoS: 88, Perf: 2.25, Config: samp},
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(posted)
	for _, s := range []string{
		``, `null`, `[]`, `{"points":null}`,
		`{"points":[{"qos":1,"perf":2,"config":{"x":0}}]}`,
		`{"points":[{"qos":1,"perf":2,"config":{"0":99999}}]}`,
		`{"points":[{"qos":1,"perf":1e999}]}`,
		`{"points":[{"perf":0}]}`, `{"points":[{"perf":-1}]}`,
		`{"points":[{"perf":2},{"perf":1},{"perf":2,"config":{"-1":1,"01":0,"1":1}}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := pareto.UnmarshalCurve(data)
		if err != nil {
			return
		}
		out, err := c.Marshal()
		if err != nil {
			t.Fatalf("accepted curve does not marshal: %v", err)
		}
		back, err := pareto.UnmarshalCurve(out)
		if err != nil {
			t.Fatalf("marshalled curve refused: %v\n%s", err, out)
		}
		if !sameCurve(c, back) {
			t.Fatalf("round trip changed the curve:\n%+v\n%+v", c, back)
		}
		if errs := core.CheckCurve(c, false); len(errs) != 0 && len(c.Points) != 0 {
			t.Fatalf("accepted curve fails CheckCurve: %v", errs)
		}
		if len(c.Points) <= 64 { // the dominance check is quadratic
			core.CheckCurve(c, true)
		}
	})
}

func sameCurve(a, b *pareto.Curve) bool {
	if a.Program != b.Program || a.BaselineQoS != b.BaselineQoS || a.BaselineTime != b.BaselineTime || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.QoS != q.QoS || p.Perf != q.Perf || len(p.Config) != len(q.Config) {
			return false
		}
		for op, k := range p.Config {
			if qk, ok := q.Config[op]; !ok || qk != k {
				return false
			}
		}
	}
	return true
}
