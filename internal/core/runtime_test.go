package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/pareto"
)

// activePoint returns the configuration rt hands out next.
func activePoint(rt *RuntimeTuner) pareto.Point {
	pt, _ := rt.Acquire()
	return pt
}

// recordActive reports one invocation of execTime under the
// configuration rt hands out now.
func recordActive(rt *RuntimeTuner, execTime float64) {
	_, idx := rt.Acquire()
	rt.RecordInvocationAt(idx, execTime)
}

func runtimeTestCurve() *pareto.Curve {
	return pareto.NewCurve("rt-test", 90, []pareto.Point{
		{QoS: 90, Perf: 1.0, Config: approx.Config{}},
		{QoS: 88.5, Perf: 1.4, Config: approx.Config{0: 1}},
		{QoS: 87, Perf: 1.9, Config: approx.Config{0: 10}},
	})
}

// TestRuntimeTunerOneSwitchPerWindow pins the satellite bugfix's core
// guarantee: a step change in system speed produces at most one
// configuration switch per full window, and switches only ever land on
// window boundaries — never once per invocation, however long the
// overload lasts.
func TestRuntimeTunerOneSwitchPerWindow(t *testing.T) {
	const window = 4
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyEnforce, 0.1, window, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Warm steady state, then a persistent 1.5x step change.
	for i := 0; i < 2*window; i++ {
		recordActive(rt, 0.1/activePoint(rt).Perf)
	}
	for i := 0; i < 6*window; i++ {
		recordActive(rt, 1.5*0.1/activePoint(rt).Perf)
	}
	trace := rt.SwitchTrace()
	if len(trace) == 0 {
		t.Fatal("step change produced no switch at all")
	}
	perWindow := map[int]int{}
	for _, ev := range trace {
		if ev.Invocation%window != 0 {
			t.Errorf("switch at invocation %d is not on a window boundary (window %d)", ev.Invocation, window)
		}
		perWindow[ev.Invocation/window]++
	}
	for w, n := range perWindow {
		if n > 1 {
			t.Errorf("window %d saw %d switches, want <= 1", w, n)
		}
	}
	// The whole run is 8 windows; the switch count must be bounded by
	// that, not by the 32 overloaded invocations.
	if got := rt.Switches(); got > 8 {
		t.Errorf("switches = %d across 8 windows; per-invocation thrash is back", got)
	}
}

// TestRuntimeTunerWindowClearedOnSwitch pins that a configuration switch
// restarts the control window empty: no sample measured under the
// previous configuration may survive into the window that evaluates the
// next one, because systemSlowdown = avg·current.Perf/target is only
// meaningful when every averaged sample ran under current.
func TestRuntimeTunerWindowClearedOnSwitch(t *testing.T) {
	const window = 3
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyEnforce, 0.1, window, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < window; i++ {
		recordActive(rt, 0.2) // 2x overload under the baseline config
	}
	if rt.Switches() != 1 {
		t.Fatalf("full overloaded window produced %d switches, want 1", rt.Switches())
	}
	rt.mu.Lock()
	left := len(rt.times)
	rt.mu.Unlock()
	if left != 0 {
		t.Fatalf("window retains %d samples from the previous configuration after a switch", left)
	}
	// One fresh sample under the new config: the window must hold exactly
	// that sample, not a mix.
	recordActive(rt, 0.05)
	rt.mu.Lock()
	times := append([]float64(nil), rt.times...)
	rt.mu.Unlock()
	if len(times) != 1 || times[0] != 0.05 {
		t.Fatalf("window after one post-switch sample = %v, want [0.05]", times)
	}
}

// TestRuntimeTunerStaleAttribution pins the Acquire/RecordInvocationAt
// contract: a sample reported for a configuration the controller already
// left feeds that configuration's health history but never the control
// window of the configuration now active.
func TestRuntimeTunerStaleAttribution(t *testing.T) {
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyEnforce, 0.1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, startIdx := rt.Acquire()
	// Fill a window with overload so the controller switches away.
	recordActive(rt, 0.2)
	recordActive(rt, 0.2)
	_, nowIdx := rt.Acquire()
	if nowIdx == startIdx {
		t.Fatal("overload did not switch configurations; test needs a switch")
	}
	// A straggler that executed under the old configuration reports late.
	rt.RecordInvocationAt(startIdx, 0.33)
	rt.mu.Lock()
	windowLen := len(rt.times)
	rt.mu.Unlock()
	if windowLen != 0 {
		t.Errorf("stale sample entered the active control window (%d samples)", windowLen)
	}
	h := rt.Health()
	var staleInv, activeInv int64
	for _, c := range h.Configs {
		if c.Index == startIdx {
			staleInv = c.Invocations
		}
		if c.Index == nowIdx {
			activeInv = c.Invocations
		}
	}
	if staleInv != 3 { // two window samples + the straggler
		t.Errorf("old config credited %d invocations, want 3", staleInv)
	}
	if activeInv != 0 {
		t.Errorf("active config credited %d invocations before running anything", activeInv)
	}
}

// TestRuntimeTunerHysteresisHoldsNeighbors pins the deadband: when the
// required speedup stays within the hysteresis band of what the active
// configuration delivers, the controller holds its choice instead of
// ping-ponging between equal-cost neighbors.
func TestRuntimeTunerHysteresisHoldsNeighbors(t *testing.T) {
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyAverage, 0.1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Drive to the 1.4 point, then oscillate required within ±3% of it.
	recordActive(rt, 0.14) // required 1.4 exactly → switch to the 1.4 point
	if activePoint(rt).Perf != 1.4 {
		t.Fatalf("setup: expected the 1.4 point, got %v", activePoint(rt).Perf)
	}
	base := rt.Switches()
	for i := 0; i < 50; i++ {
		jitter := 1.0 + 0.03*float64(1-2*(i%2)) // ±3%, inside the 5% band
		// required = exec·Perf/target = 1.4·jitter: within the deadband
		// around the active point's own 1.4.
		recordActive(rt, 0.1*jitter)
	}
	if got := rt.Switches() - base; got != 0 {
		t.Errorf("in-band noise produced %d switches, want 0 (hysteresis)", got)
	}
	// Out-of-band pressure still moves the controller.
	recordActive(rt, 0.2)
	if got := rt.Switches() - base; got == 0 {
		t.Error("out-of-band overload must still switch")
	}
}

// TestMixProbabilitiesClamped pins the Policy-2 boundary behavior: a
// required speedup outside the curve's Perf range yields deterministic
// endpoint selection with weights clamped into [0,1].
func TestMixProbabilitiesClamped(t *testing.T) {
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyAverage, 0.1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cases := []struct {
		required float64
		wantPerf float64 // the deterministic endpoint
	}{
		{0.25, 1.0}, // far below min Perf
		{1.0, 1.0},  // exactly min Perf
		{1.9, 1.9},  // exactly max Perf
		{7.5, 1.9},  // above max Perf
	}
	pts := rt.curve.Points
	for _, tc := range cases {
		lo, hi, p1 := rt.bracket(tc.required)
		if p1 < 0 || p1 > 1 {
			t.Errorf("required %v: probability %v leaves [0,1]", tc.required, p1)
		}
		got := pts[lo].Perf
		if p1 < 0.5 {
			got = pts[hi].Perf
		}
		if got != tc.wantPerf {
			t.Errorf("required %v: deterministic endpoint Perf %v, want %v", tc.required, got, tc.wantPerf)
		}
		// pick must agree and not consume randomness on endpoints.
		for i := 0; i < 8; i++ {
			if perf := pts[rt.pick(tc.required)].Perf; perf != tc.wantPerf {
				t.Errorf("required %v: pick draw %d landed on %v, want deterministic %v", tc.required, i, perf, tc.wantPerf)
			}
		}
	}
	// A mid-bracket target still mixes to the paper's weights.
	if _, _, p1 := rt.bracket(1.65); math.Abs(p1-0.5) > 1e-9 {
		t.Errorf("mid-bracket 1.65 between 1.4/1.9: p1 = %v, want 0.5", p1)
	}
	// A curve with an infinite Perf is refused; were one installed, the
	// NaN weight it yields clamps to the conservative endpoint.
	inf := &pareto.Curve{Points: []pareto.Point{{Perf: 1}, {Perf: math.Inf(1)}}}
	if _, err := NewRuntimeTuner(inf, PolicyAverage, 0.1, 1, 11); err == nil {
		t.Error("NewRuntimeTuner accepted a curve with an infinite Perf")
	}
	corrupt := &RuntimeTuner{curve: inf, policy: PolicyAverage}
	if lo, _, p1 := corrupt.bracket(5); lo != 0 || p1 != 1 {
		t.Errorf("NaN mix weight: bracket(5) = (%d, %v), want the slower point with weight 1", lo, p1)
	}
}

// TestSwapCurveResetsHealth pins the hot-swap path: installing a fresh
// curve resets the per-config health state (keyed by curve index),
// clears the control window and the latched recalibration signal, and
// re-selects from the new curve, while lifetime counters survive.
func TestSwapCurveResetsHealth(t *testing.T) {
	rt, err := NewRuntimeTuner(runtimeTestCurve(), PolicyEnforce, 0.1, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Drift hard so the recalibration signal latches.
	for i := 0; i < 20; i++ {
		recordActive(rt, 3*0.1/activePoint(rt).Perf)
	}
	if !rt.RecalibrationNeeded() {
		t.Fatal("setup: 3x slowdown did not latch recalibration")
	}
	invBefore := rt.Health().Invocations

	fresh := pareto.NewCurve("rt-test-v2", 90, []pareto.Point{
		{QoS: 89.5, Perf: 1.0, Config: approx.Config{}},
		{QoS: 87.5, Perf: 2.2, Config: approx.Config{0: 11}},
		{QoS: 86, Perf: 3.1, Config: approx.Config{0: 12}},
	})
	if err := rt.SwapCurve(fresh); err != nil {
		t.Fatal(err)
	}
	if rt.RecalibrationNeeded() {
		t.Error("swap must release the latched recalibration signal")
	}
	if rt.CurveSwaps() != 1 {
		t.Errorf("curve swaps = %d, want 1", rt.CurveSwaps())
	}
	h := rt.Health()
	if len(h.Configs) != 0 {
		t.Errorf("per-config health survived the swap: %d configs", len(h.Configs))
	}
	if h.Invocations != invBefore {
		t.Errorf("lifetime invocation count changed across swap: %d vs %d", h.Invocations, invBefore)
	}
	// The active point must come off the new curve.
	if pt, idx := rt.Acquire(); !reflect.DeepEqual(pt, fresh.Points[idx]) {
		t.Errorf("active point %v is not on the swapped curve", pt.Perf)
	}
	// And the tuner keeps controlling on the new curve.
	for i := 0; i < 4; i++ {
		recordActive(rt, 0.1/activePoint(rt).Perf)
	}
	if got := rt.Health().Invocations; got != invBefore+4 {
		t.Errorf("post-swap invocations = %d, want %d", got, invBefore+4)
	}
	if err := rt.SwapCurve(nil); err == nil {
		t.Error("nil curve swap must error")
	}
	if err := rt.SwapCurve(&pareto.Curve{}); err == nil {
		t.Error("empty curve swap must error")
	}
}
