package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// refTuner is a reference model of RuntimeTuner's control loop (§5),
// written for clarity rather than speed: linear scans, no locking, no
// telemetry, no health monitor beyond a sample count. It is the ground
// truth TestRuntimeTunerMatchesReference checks the controller against.
type refTuner struct {
	perf        []float64 // Perf of each curve position, ascending
	policy      Policy
	target      float64
	window      int
	rng         *tensor.RNG
	idx         int // active curve position
	required    float64
	times       []float64 // tumbling control window
	invocations int
	healthN     int // samples credited to a configuration since the last swap
	switches    int
	swaps       int
	trace       []SwitchEvent
}

func newRefTuner(perf []float64, policy Policy, target float64, window int, seed int64) *refTuner {
	m := &refTuner{perf: perf, policy: policy, target: target, window: window, rng: tensor.NewRNG(seed), required: 1}
	m.idx = m.pick(1)
	return m
}

// pick: Policy 1 takes the first point reaching required (else the
// fastest); Policy 2 mixes the bracketing pair with weight p1 on the
// slower one, drawing only when 0 < p1 < 1.
func (m *refTuner) pick(required float64) int {
	n, i := len(m.perf), 0
	for i < n && !(m.perf[i] >= required) {
		i++
	}
	lo, hi := max(i-1, 0), min(i, n-1)
	if m.policy == PolicyEnforce {
		return hi
	}
	if m.perf[lo] == m.perf[hi] {
		return lo
	}
	p1 := (m.perf[hi] - required) / (m.perf[hi] - m.perf[lo])
	switch {
	case !(p1 < 1):
		return lo
	case p1 <= 0:
		return hi
	case m.rng.Float64() < p1:
		return lo
	}
	return hi
}

func (m *refTuner) log(from, to int) {
	m.trace = append(m.trace, SwitchEvent{Invocation: m.invocations, From: from, To: to})
	if len(m.trace) > maxSwitchTrace {
		m.trace = m.trace[1:]
	}
}

func (m *refTuner) record(idx int, t float64) {
	m.invocations++
	if idx < 0 || idx >= len(m.perf) {
		return
	}
	m.healthN++
	if idx != m.idx {
		return
	}
	if m.times = append(m.times, t); len(m.times) < m.window {
		return
	}
	var avg float64
	for _, x := range m.times {
		avg += x
	}
	avg /= float64(len(m.times))
	m.times = m.times[:0]
	p := m.perf[m.idx]
	m.required = avg * p / m.target
	if math.Abs(m.required-p) <= DefaultHysteresis*p {
		return
	}
	if next := m.pick(m.required); next != m.idx {
		m.switches++
		m.log(m.idx, next)
		m.idx = next
	}
}

func (m *refTuner) swap(perf []float64) {
	m.perf, m.times, m.healthN = perf, m.times[:0], 0
	m.swaps++
	next := m.pick(m.required)
	m.log(-1-m.idx, next)
	m.idx = next
}

// oracleCurve draws a curve of one to five points with strictly rising
// Perf (sometimes starting below the baseline's 1.0) and distinct
// configurations.
func oracleCurve(g *tensor.RNG) *pareto.Curve {
	n := 1 + g.Intn(5)
	pts := make([]pareto.Point, n)
	perf := 0.7 + 0.5*g.Float64()
	for i := range pts {
		pts[i] = pareto.Point{QoS: 95 - float64(i), Perf: perf, Config: approx.Config{i: []approx.KnobID{1, 10, 11}[g.Intn(3)]}}
		perf += 0.05 + g.Float64()
	}
	return pareto.NewCurve("oracle", 95, pts)
}

func curvePerfs(c *pareto.Curve) []float64 {
	out := make([]float64, c.Len())
	for i, p := range c.Points {
		out[i] = p.Perf
	}
	return out
}

// oracleRun drives a RuntimeTuner and the reference model with one
// seeded random sequence and checks them against each other, and the
// controller's invariants on its own, after every step.
type oracleRun struct {
	t      *testing.T
	rt     *RuntimeTuner
	m      *refTuner
	g      *tensor.RNG
	curve  *pareto.Curve
	origin map[float64]int // sample value → curve index it was recorded under
	// sinceReset counts samples that entered the control window since the
	// last switch or swap.
	sinceReset int
	step       int
}

func (o *oracleRun) fail(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("policy %v window %d step %d: %s", o.m.policy, o.m.window, o.step, fmt.Sprintf(format, args...))
}

// sample returns a fresh execution time scaled so that a full window of
// such samples asks for roughly the given speedup under the active
// configuration; every returned value is distinct so its origin is known.
func (o *oracleRun) sample(idx int, required float64) float64 {
	t := o.m.target * required / o.curve.Points[o.m.idx].Perf
	for {
		t *= 1 + 1e-9*o.g.Float64()
		if _, dup := o.origin[t]; !dup {
			o.origin[t] = idx
			return t
		}
	}
}

// nextRequired draws the speedup a sample asks for: half the time near
// the active point's own Perf (inside or at the edge of the hysteresis
// band), otherwise anywhere from well below to beyond the curve.
func (o *oracleRun) nextRequired() float64 {
	p := o.curve.Points[o.m.idx].Perf
	if o.g.Intn(2) == 0 {
		return p * (1 + 0.12*(o.g.Float64()-0.5))
	}
	return 0.3 + 5*o.g.Float64()
}

func (o *oracleRun) record(idx int, t float64) {
	o.t.Helper()
	before := o.rt.Switches()
	activePerf := o.curve.Points[o.m.idx].Perf
	evaluates := idx == o.m.idx && len(o.m.times) == o.m.window-1
	if idx == o.m.idx {
		o.sinceReset++
	}
	o.rt.RecordInvocationAt(idx, t)
	o.m.record(idx, t)
	if o.rt.Switches() != before {
		if !evaluates || o.sinceReset < o.m.window {
			o.fail("switch after %d window samples (window %d, evaluating %v)", o.sinceReset, o.m.window, evaluates)
		}
		o.sinceReset = 0
	}
	if evaluates {
		o.rt.mu.Lock()
		req := o.rt.requiredPerf
		o.rt.mu.Unlock()
		if math.Abs(req-activePerf) <= DefaultHysteresis*activePerf && o.rt.Switches() != before {
			o.fail("switched with required %v inside the deadband of %v", req, activePerf)
		}
	}
	o.check()
}

func (o *oracleRun) swap() {
	o.t.Helper()
	o.curve = oracleCurve(o.g)
	if err := o.rt.SwapCurve(o.curve); err != nil {
		o.fail("swap: %v", err)
	}
	o.m.swap(curvePerfs(o.curve))
	o.sinceReset = 0
	o.check()
}

func (o *oracleRun) check() {
	o.t.Helper()
	pt, idx := o.rt.Acquire()
	if idx != o.m.idx || pt.Perf != o.curve.Points[o.m.idx].Perf {
		o.fail("Acquire = (%v, %d), reference index %d", pt.Perf, idx, o.m.idx)
	}
	if s, c := o.rt.Switches(), o.rt.CurveSwaps(); s != o.m.switches || c != o.m.swaps {
		o.fail("switches/swaps = %d/%d, reference %d/%d", s, c, o.m.switches, o.m.swaps)
	}
	trace := o.rt.SwitchTrace()
	if len(trace) != len(o.m.trace) {
		o.fail("trace has %d events, reference %d", len(trace), len(o.m.trace))
	}
	for i := range trace {
		if trace[i] != o.m.trace[i] {
			o.fail("trace[%d] = %+v, reference %+v", i, trace[i], o.m.trace[i])
		}
	}
	o.rt.mu.Lock()
	times := append([]float64(nil), o.rt.times...)
	required := o.rt.requiredPerf
	o.rt.mu.Unlock()
	if len(times) != len(o.m.times) || len(times) >= o.m.window {
		o.fail("window holds %d samples, reference %d, window %d", len(times), len(o.m.times), o.m.window)
	}
	for i, x := range times {
		if x != o.m.times[i] {
			o.fail("window[%d] = %v, reference %v", i, x, o.m.times[i])
		}
		if o.origin[x] != idx {
			o.fail("window mixes configurations: sample of %d in the window of %d", o.origin[x], idx)
		}
	}
	if required != o.m.required {
		o.fail("required speedup %v, reference %v", required, o.m.required)
	}
	o.rt.mu.Lock()
	lo, hi, w := o.rt.bracket(required)
	o.rt.mu.Unlock()
	if !(w >= 0 && w <= 1) {
		o.fail("mix weight %v outside [0,1] for %v between %v and %v", w, required, o.m.perf[lo], o.m.perf[hi])
	}
	h := o.rt.Health()
	var credited int64
	for _, c := range h.Configs {
		credited += c.Invocations
	}
	if h.Invocations != o.m.invocations || credited != int64(o.m.healthN) {
		o.fail("health counts %d invocations, %d credited; reference %d, %d", h.Invocations, credited, o.m.invocations, o.m.healthN)
	}
}

// TestRuntimeTunerMatchesReference runs seeded random sequences of
// Acquire, RecordInvocationAt (for the active configuration, for stale
// ones and for indices outside the curve), window-filling bursts and SwapCurve through the
// controller and through refTuner, under both policies and windows of
// one to four, and requires them to agree on every switch, window and
// random draw.
func TestRuntimeTunerMatchesReference(t *testing.T) {
	const target = 0.1
	steps := 300
	if testing.Short() {
		steps = 100
	}
	for _, policy := range []Policy{PolicyEnforce, PolicyAverage} {
		for window := 1; window <= 4; window++ {
			for seed := int64(1); seed <= 12; seed++ {
				g := tensor.NewRNG(seed*1000 + int64(window)*10 + int64(policy))
				curve := oracleCurve(g)
				rt, err := NewRuntimeTuner(curve, policy, target, window, seed)
				if err != nil {
					t.Fatal(err)
				}
				o := &oracleRun{t: t, rt: rt, g: g, curve: curve, origin: map[float64]int{},
					m: newRefTuner(curvePerfs(curve), policy, target, window, seed)}
				o.check()
				for o.step = 0; o.step < steps; o.step++ {
					switch op := g.Intn(20); {
					case op < 8: // a full window's worth under the active configuration
						required := o.nextRequired()
						for k := 0; k < window; k++ {
							_, idx := rt.Acquire()
							o.record(idx, o.sample(idx, required))
						}
					case op < 13: // one sample under the active configuration
						_, idx := rt.Acquire()
						o.record(idx, o.sample(idx, o.nextRequired()))
					case op < 18: // a sample for any configuration, often a stale one
						idx := g.Intn(curve.Len())
						o.record(idx, o.sample(idx, o.nextRequired()))
					case op < 19: // an index outside the curve, e.g. from before a swap
						idx := []int{-1, curve.Len(), curve.Len() + 3}[g.Intn(3)]
						o.record(idx, o.sample(idx, o.nextRequired()))
					default:
						o.swap()
						curve = o.curve
					}
				}
				rt.Close()
			}
		}
	}
}
