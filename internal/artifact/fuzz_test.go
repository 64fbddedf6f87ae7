package artifact

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/pareto"
)

// lenetBundle is the bundle New makes from the committed lenet curve
// (approxtune -benchmark lenet -images 32 -iters 300 -seed 1): the whole
// curve in the FP16 slot, its points that use no FP16 knob in the FP32 one.
func lenetBundle(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("../pareto/testdata/lenet_curve.json")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := pareto.UnmarshalCurve(data)
	if err != nil {
		tb.Fatal(err)
	}
	fp32 := &pareto.Curve{Program: c.Program, BaselineQoS: c.BaselineQoS}
	for _, p := range c.Points {
		if checkPrecision(&pareto.Curve{Points: []pareto.Point{p}}, false) == nil {
			fp32.Points = append(fp32.Points, p)
		}
	}
	b, err := New(c.Program, fp32, c)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := b.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzArtifactLoad feeds arbitrary bytes to Load, the parser between a
// shipped bundle file and the install-time phase. Whatever arrives it must
// not panic, and a bundle it accepts must pass core.CheckCurve's relaxed
// invariants in both slots and come back from Marshal → Load as the same
// bundle, byte for byte once marshalled. The in-code seed is the lenet
// bundle; the committed corpus under testdata/fuzz holds its FP32-only
// half and bundles Load must refuse (bad checksum, version, slot, order,
// knob), and `make fuzz-smoke` mutates both.
func FuzzArtifactLoad(f *testing.F) {
	f.Add(lenetBundle(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Load(data)
		if err != nil {
			return
		}
		for _, c := range []*pareto.Curve{b.FP32, b.FP16} {
			if c == nil {
				continue
			}
			if errs := core.CheckCurve(c, false); len(errs) != 0 {
				t.Fatalf("accepted bundle holds a curve that fails CheckCurve: %v", errs)
			}
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("accepted bundle does not marshal: %v", err)
		}
		back, err := Load(out)
		if err != nil {
			t.Fatalf("marshalled bundle refused: %v\n%s", err, out)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatalf("reloaded bundle does not marshal: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the bundle:\n%s\nreloaded:\n%s", out, again)
		}
	})
}
