package predictor

import (
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func mkProfiles() *Profiles {
	base := tensor.FromSlice([]float32{0.7, 0.2, 0.1}, 1, 3)
	p := NewProfiles(90, base)
	// op 0, knob 1: small error; op 1, knob 10: bigger error.
	p.Add(0, 1, -0.5, tensor.FromSlice([]float32{-0.01, 0.01, 0}, 1, 3))
	p.Add(1, 10, -2.0, tensor.FromSlice([]float32{-0.2, 0.15, 0.05}, 1, 3))
	return p
}

// scoreTop0 scores an output by the probability mass on class 0 ×100.
func scoreTop0(out *tensor.Tensor) float64 { return float64(out.Data()[0]) * 100 }

func TestPi2Prediction(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi2, p, nil)
	if got := q.Predict(approx.Config{}); got != 90 {
		t.Errorf("baseline prediction = %v, want 90", got)
	}
	if got := q.Predict(approx.Config{0: 1}); got != 89.5 {
		t.Errorf("single-knob prediction = %v, want 89.5", got)
	}
	// Composition: losses sum.
	if got := q.Predict(approx.Config{0: 1, 1: 10}); got != 87.5 {
		t.Errorf("composed prediction = %v, want 87.5", got)
	}
}

func TestPi1Prediction(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi1, p, scoreTop0)
	base := q.Predict(approx.Config{})
	if math.Abs(base-70) > 1e-4 {
		t.Errorf("baseline = %v, want 70", base)
	}
	// With both knobs the class-0 mass drops by 0.21.
	got := q.Predict(approx.Config{0: 1, 1: 10})
	if math.Abs(got-49) > 1e-3 {
		t.Errorf("composed Π1 = %v, want 49", got)
	}
}

func TestPi1DoesNotMutateBase(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi1, p, scoreTop0)
	before := p.BaseOut.Clone()
	q.Predict(approx.Config{0: 1, 1: 10})
	if !tensor.Equal(p.BaseOut, before, 0) {
		t.Fatal("Π1 mutated the baseline output profile")
	}
}

func TestPi1RequiresTensorProfiles(t *testing.T) {
	p := NewProfiles(90, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Π1 without tensor profiles should panic")
		}
	}()
	NewQoSPredictor(Pi1, p, scoreTop0)
}

func TestFP32KnobContributesNothing(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi2, p, nil)
	if q.Predict(approx.Config{0: approx.KnobFP32, 1: approx.KnobFP32}) != 90 {
		t.Error("baseline knobs must not change the prediction")
	}
}

func TestCalibratePi2ClosedForm(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi2, p, nil)
	// Ground truth: losses actually compose at 1.5× the profiled sum.
	samples := []Sample{
		{approx.Config{0: 1}, 90 - 0.75},
		{approx.Config{1: 10}, 90 - 3.0},
		{approx.Config{0: 1, 1: 10}, 90 - 3.75},
	}
	alpha := q.Calibrate(samples)
	if math.Abs(alpha-1.5) > 1e-6 {
		t.Errorf("α = %v, want 1.5", alpha)
	}
	got := q.Predict(approx.Config{0: 1, 1: 10})
	if math.Abs(got-86.25) > 1e-6 {
		t.Errorf("calibrated prediction = %v, want 86.25", got)
	}
}

func TestCalibratePi2DegenerateFallsBack(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi2, p, nil)
	// Samples that would fit a negative α: fall back to 1.
	samples := []Sample{{approx.Config{0: 1}, 95}}
	if alpha := q.Calibrate(samples); alpha != 1 {
		t.Errorf("degenerate calibration should fall back to α=1, got %v", alpha)
	}
}

func TestCalibratePi1GridSearch(t *testing.T) {
	p := mkProfiles()
	q := NewQoSPredictor(Pi1, p, scoreTop0)
	// True behaviour: errors compose at α = 0.5.
	samples := []Sample{
		{approx.Config{0: 1}, q.predict1(approx.Config{0: 1}, 0.5)},
		{approx.Config{1: 10}, q.predict1(approx.Config{1: 10}, 0.5)},
		{approx.Config{0: 1, 1: 10}, q.predict1(approx.Config{0: 1, 1: 10}, 0.5)},
	}
	alpha := q.Calibrate(samples)
	if math.Abs(alpha-0.5) > 0.05 {
		t.Errorf("Π1 α = %v, want ≈0.5", alpha)
	}
}

func TestCalibrateEmptySamples(t *testing.T) {
	q := NewQoSPredictor(Pi2, mkProfiles(), nil)
	if a := q.Calibrate(nil); a != 1 {
		t.Errorf("empty calibration should keep α=1, got %v", a)
	}
}

func TestMergeShards(t *testing.T) {
	a := NewProfiles(90, nil)
	a.Add(0, 1, -1.0, nil)
	b := NewProfiles(92, nil)
	b.Add(0, 1, -2.0, nil)
	b.Add(1, 10, -3.0, nil)
	m := Merge([]*Profiles{a, b})
	if m.BaseQoS != 91 {
		t.Errorf("merged base = %v, want 91", m.BaseQoS)
	}
	if got := m.DeltaQ[Key{0, 1}]; got != -1.5 {
		t.Errorf("merged ΔQ = %v, want -1.5 (mean)", got)
	}
	if got := m.DeltaQ[Key{1, 10}]; got != -3.0 {
		t.Errorf("singleton ΔQ = %v, want -3.0", got)
	}
}

func TestPerfPredictorEq3(t *testing.T) {
	costs := []graph.NodeCost{
		{ID: 0},
		{ID: 1, Nc: 1000, Nm: 100},
		{ID: 2, Nc: 500, Nm: 50},
	}
	pp := NewPerfPredictor(costs)
	if got := pp.Predict(approx.Config{}); got != 1 {
		t.Errorf("baseline speedup = %v, want 1", got)
	}
	// MAC kernels count ~1 memory op per compute op, so op 1's memory
	// term is 1000, op 2's is 500. FP16 on op 1 (Rc=1, Rm=2):
	// cost = (1000 + 500) + (500 + 500) = 2500 of baseline 3000.
	cfg := approx.Config{1: approx.KnobFP16}
	if got := pp.Cost(cfg); got != 2500 {
		t.Errorf("cost = %v, want 2500", got)
	}
	if got := pp.Predict(cfg); math.Abs(got-3000.0/2500) > 1e-9 {
		t.Errorf("speedup = %v", got)
	}
}

func TestPerfPredictorRanksBySavings(t *testing.T) {
	costs := []graph.NodeCost{{ID: 1, Nc: 1e6, Nm: 1e4}}
	pp := NewPerfPredictor(costs)
	light := pp.Predict(approx.Config{1: approx.SamplingKnob(4, 0, 0)}) // skip 1/4
	heavy := pp.Predict(approx.Config{1: approx.SamplingKnob(2, 0, 0)}) // skip 1/2
	if heavy <= light {
		t.Errorf("heavier sampling must predict faster: %v vs %v", heavy, light)
	}
}

func TestPerfPredictorZeroCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPerfPredictor([]graph.NodeCost{{ID: 0}})
}

// TestPredictionIndependentOfMapOrder: a prediction sums one float term per
// op, and Go randomizes the iteration order of the configuration map, so
// summing in map order gave one configuration several answers an ulp apart
// (and one seed several tuning curves). Fifty evaluations of a twelve-op
// configuration, whose terms span nine orders of magnitude so that every
// summation order rounds differently, must agree in every bit, and so must
// an equal configuration built in the opposite order.
func TestPredictionIndependentOfMapOrder(t *testing.T) {
	const ops = 12
	g := tensor.NewRNG(77)
	base := tensor.New(1, 8)
	g.FillNormal(base, 0, 1)
	p := NewProfiles(91.3, base)
	cfg, rev := approx.Config{}, approx.Config{}
	for op := 0; op < ops; op++ {
		dt := tensor.New(1, 8)
		g.FillNormal(dt, 0, float32(math.Pow(10, float64(op%5)-3)))
		p.Add(op, approx.KnobID(op+1), g.NormFloat64()*math.Pow(10, float64(op%9)-6), dt)
		cfg[op] = approx.KnobID(op + 1)
	}
	for op := ops - 1; op >= 0; op-- {
		rev[op] = cfg[op]
	}
	sumAll := func(out *tensor.Tensor) float64 {
		var s float64
		for _, v := range out.Data() {
			s += float64(v)
		}
		return s
	}
	for _, q := range []*QoSPredictor{NewQoSPredictor(Pi2, p, nil), NewQoSPredictor(Pi1, p, sumAll)} {
		q.Alpha = 0.83
		want := math.Float64bits(q.Predict(cfg))
		for i := 0; i < 50; i++ {
			if got := math.Float64bits(q.Predict(cfg)); got != want {
				t.Fatalf("%v: evaluation %d = %#x, first %#x", q.Model, i, got, want)
			}
		}
		if got := math.Float64bits(q.Predict(rev)); got != want {
			t.Fatalf("%v: same configuration built in reverse = %#x, want %#x", q.Model, got, want)
		}
	}
}
