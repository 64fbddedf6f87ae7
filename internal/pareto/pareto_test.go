package pareto

import (
	"testing"
	"testing/quick"

	"repro/internal/approx"
)

func pts(vals ...[2]float64) []Point {
	out := make([]Point, len(vals))
	for i, v := range vals {
		out[i] = Point{QoS: v[0], Perf: v[1], Config: approx.Config{0: approx.KnobID(i % 2)}}
	}
	return out
}

func TestDominance(t *testing.T) {
	a := Point{QoS: 80, Perf: 1.5}
	b := Point{QoS: 85, Perf: 2.0}
	if !Dominated(a, b) || !StrictlyDominated(a, b) {
		t.Error("a should be strictly dominated by b")
	}
	if Dominated(b, a) {
		t.Error("b is not dominated by a")
	}
	if StrictlyDominated(a, a) {
		t.Error("a point does not strictly dominate itself")
	}
	if !Dominated(a, a) {
		t.Error("≼ is reflexive")
	}
}

func TestSetBasic(t *testing.T) {
	points := pts(
		[2]float64{90, 1.0}, // pareto (best QoS)
		[2]float64{85, 1.5}, // pareto
		[2]float64{84, 1.4}, // dominated by (85,1.5)
		[2]float64{80, 2.0}, // pareto
		[2]float64{70, 1.2}, // dominated
	)
	ps := Set(points)
	if len(ps) != 3 {
		t.Fatalf("|PS| = %d, want 3: %+v", len(ps), ps)
	}
	// ascending by Perf
	for i := 1; i < len(ps); i++ {
		if ps[i].Perf <= ps[i-1].Perf {
			t.Error("Pareto set should be sorted by increasing Perf")
		}
		if ps[i].QoS >= ps[i-1].QoS {
			t.Error("along the frontier QoS must decrease as Perf increases")
		}
	}
}

func TestSetEmpty(t *testing.T) {
	if Set(nil) != nil {
		t.Error("empty input should give empty set")
	}
}

// Property: no member of PS(S) is strictly dominated by any point of S,
// and every point of S is dominated-or-equal by some member of PS(S).
func TestSetInvariants(t *testing.T) {
	f := func(raw [][2]float64) bool {
		if len(raw) == 0 {
			return true
		}
		points := make([]Point, len(raw))
		for i, v := range raw {
			points[i] = Point{QoS: clamp(v[0]), Perf: clamp(v[1])}
		}
		ps := Set(points)
		for _, s := range ps {
			for _, o := range points {
				if StrictlyDominated(s, o) {
					return false
				}
			}
		}
		for _, o := range points {
			covered := false
			for _, s := range ps {
				if Dominated(o, s) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if v != v || v > 1e6 || v < -1e6 {
		return 0
	}
	return v
}

// Property: PSε ⊇ PS for every ε ≥ 0, and PSε grows with ε.
func TestRelaxedSetMonotone(t *testing.T) {
	points := pts(
		[2]float64{90, 1.0}, [2]float64{85, 1.5}, [2]float64{84.9, 1.45},
		[2]float64{80, 2.0}, [2]float64{60, 1.1}, [2]float64{79, 1.9},
	)
	ps := Set(points)
	r0 := RelaxedSet(points, 0)
	r1 := RelaxedSet(points, 0.2)
	r2 := RelaxedSet(points, 100)
	if len(r0) < len(ps) {
		t.Error("PS0 must contain PS")
	}
	if len(r1) < len(r0) || len(r2) < len(r1) {
		t.Error("PSε must grow with ε")
	}
	if len(r2) != len(points) {
		t.Error("huge ε must include everything")
	}
}

func TestEpsilonForLimit(t *testing.T) {
	var points []Point
	for i := 0; i < 100; i++ {
		points = append(points, Point{QoS: 90 - float64(i)*0.1, Perf: 1 + float64(i)*0.01})
	}
	// All 100 are on the frontier; asking for ≤ 100 keeps ε small, ≤ 10
	// forces ε = 0 with trimming handled by the caller.
	eps := EpsilonForLimit(points, 200)
	if len(RelaxedSet(points, eps)) > 200 {
		t.Error("EpsilonForLimit exceeded the limit")
	}
	if got := EpsilonForLimit(points, 10); got != 0 {
		t.Errorf("over-full frontier should give ε=0, got %v", got)
	}
}

func TestTrim(t *testing.T) {
	var points []Point
	for i := 0; i < 97; i++ {
		points = append(points, Point{QoS: float64(i), Perf: float64(i)})
	}
	tr := Trim(points, 50)
	if len(tr) != 50 {
		t.Fatalf("Trim len = %d, want 50", len(tr))
	}
	if tr[0].Perf != points[0].Perf || tr[49].Perf != points[96].Perf {
		t.Error("Trim must keep the endpoints")
	}
	same := Trim(points[:10], 50)
	if len(same) != 10 {
		t.Error("Trim should not pad short inputs")
	}
}

func TestCurveBestAndSearch(t *testing.T) {
	points := pts(
		[2]float64{90, 1.0}, [2]float64{88, 1.4}, [2]float64{85, 1.9}, [2]float64{80, 2.5},
	)
	c := NewCurve("bench", 90.5, points)
	best, ok := c.Best(84)
	if !ok || best.Perf != 1.9 {
		t.Fatalf("Best(84) = %+v, %v; want Perf 1.9", best, ok)
	}
	if _, ok := c.Best(95); ok {
		t.Error("no point has QoS ≥ 95")
	}
}

func TestCurveSerializationRoundTrip(t *testing.T) {
	points := []Point{
		{QoS: 88.5, Perf: 1.7, Config: approx.Config{0: 1, 3: 10}},
		{QoS: 84.2, Perf: 2.3, Config: approx.Config{0: 1, 3: 31}},
	}
	c := NewCurve("resnet18", 89.4, points)
	c.BaselineTime = 0.125
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCurve(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != "resnet18" || back.BaselineQoS != 89.4 || back.BaselineTime != 0.125 {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.Len() != c.Len() {
		t.Fatalf("points lost: %d vs %d", back.Len(), c.Len())
	}
	for i := range back.Points {
		if back.Points[i].QoS != c.Points[i].QoS || back.Points[i].Perf != c.Points[i].Perf {
			t.Fatal("point values changed in round trip")
		}
		if !back.Points[i].Config.Equal(c.Points[i].Config, 4) {
			t.Fatal("config changed in round trip")
		}
	}
}

func TestUnmarshalCurveRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalCurve([]byte("not json")); err == nil {
		t.Error("garbage must not parse")
	}
}
