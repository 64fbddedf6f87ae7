package core

import (
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/obs"
	"repro/internal/pareto"
)

func healthTestCurve() *pareto.Curve {
	return pareto.NewCurve("health-test", 90, []pareto.Point{
		{QoS: 90, Perf: 1.0, Config: approx.Config{}},
		{QoS: 88.5, Perf: 1.4, Config: approx.Config{0: 1}},
		{QoS: 87, Perf: 1.9, Config: approx.Config{0: 10}},
	})
}

// TestRuntimeHealthNoFaultNoAlarms pins the acceptance criterion's
// negative half: when every invocation takes exactly the time the curve
// predicts for the active configuration, no drift alarm fires and the
// recalibration signal stays clear.
func TestRuntimeHealthNoFaultNoAlarms(t *testing.T) {
	before := obs.NewCounter("runtime.drift_alarms").Value()
	rt, err := NewRuntimeTuner(healthTestCurve(), PolicyEnforce, 0.1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 60; i++ {
		pt, idx := rt.Acquire()
		rt.RecordInvocationAt(idx, 0.1/pt.Perf) // exactly as predicted
	}
	h := rt.Health()
	if h.DriftAlarms != 0 {
		t.Errorf("no-fault run raised %d drift alarms, want 0:\n%s", h.DriftAlarms, h)
	}
	if h.RecalibrationNeeded || rt.RecalibrationNeeded() {
		t.Error("no-fault run must not request recalibration")
	}
	if len(h.Drifting()) != 0 {
		t.Errorf("no-fault run flags configs as drifting: %v", h.Drifting())
	}
	if got := obs.NewCounter("runtime.drift_alarms").Value() - before; got != 0 {
		t.Errorf("runtime.drift_alarms advanced by %d during a no-fault run", got)
	}
	if h.Invocations != 60 || h.Latency.Count != 60 {
		t.Errorf("health invocations=%d latency.count=%d, want 60/60", h.Invocations, h.Latency.Count)
	}
	var per int64
	for _, c := range h.Configs {
		per += c.Invocations
		if math.Abs(c.TimeRatio-1) > 0.05 {
			t.Errorf("config[%d] time ratio %v, want ~1.0", c.Index, c.TimeRatio)
		}
	}
	if per != 60 {
		t.Errorf("per-config invocations sum to %d, want 60", per)
	}
}

// TestRuntimeHealthDetectsSlowdownDrift pins the acceptance criterion's
// positive half: doubling execution times mid-run (relative to what the
// curve predicts for whatever configuration is active) must raise at
// least one drift alarm, flag the drifting configuration in Health(),
// latch the recalibration signal and advance runtime.drift_alarms.
func TestRuntimeHealthDetectsSlowdownDrift(t *testing.T) {
	before := obs.NewCounter("runtime.drift_alarms").Value()
	rt, err := NewRuntimeTuner(healthTestCurve(), PolicyEnforce, 0.1, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 20; i++ {
		recordActive(rt, 0.1/activePoint(rt).Perf)
	}
	if rt.Health().DriftAlarms != 0 {
		t.Fatalf("alarms before the fault: %d", rt.Health().DriftAlarms)
	}
	// Fault injection: the machine is now 2x slower than calibration
	// assumed, whichever configuration runs.
	for i := 0; i < 40; i++ {
		recordActive(rt, 2*0.1/activePoint(rt).Perf)
	}
	h := rt.Health()
	if h.DriftAlarms < 1 {
		t.Fatalf("2x slowdown raised no drift alarm:\n%s", h)
	}
	if !h.RecalibrationNeeded || !rt.RecalibrationNeeded() {
		t.Error("2x slowdown must latch the recalibration signal")
	}
	drifting := h.Drifting()
	if len(drifting) == 0 {
		t.Fatalf("Health() reports no drifting config after 2x slowdown:\n%s", h)
	}
	for _, c := range drifting {
		if !c.TimeDrifting {
			t.Errorf("config[%d] drifting without TimeDrifting set", c.Index)
		}
		if c.TimeRatio < driftBand {
			t.Errorf("config[%d] flagged with ratio %v < band %v", c.Index, c.TimeRatio, driftBand)
		}
	}
	if got := obs.NewCounter("runtime.drift_alarms").Value() - before; got < 1 {
		t.Errorf("runtime.drift_alarms advanced by %d, want >= 1", got)
	}
}

// TestRuntimeHealthQoSDrift checks the calibration-QoS detector: a
// smoothed observed QoS more than qosDriftTolerance below the curve's
// promise alarms; one within tolerance does not.
func TestRuntimeHealthQoSDrift(t *testing.T) {
	rt, err := NewRuntimeTuner(healthTestCurve(), PolicyEnforce, 0.1, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Healthy: 0.2 points under the promised 90 is inside tolerance.
	for i := 0; i < 10; i++ {
		rt.RecordQoS(89.8)
	}
	if h := rt.Health(); h.DriftAlarms != 0 || h.RecalibrationNeeded {
		t.Fatalf("in-tolerance QoS raised alarms:\n%s", h)
	}
	// Quality regression: 3 points under the promise.
	for i := 0; i < 10; i++ {
		rt.RecordQoS(87)
	}
	h := rt.Health()
	if h.DriftAlarms < 1 || !h.RecalibrationNeeded {
		t.Fatalf("3-point QoS regression raised no alarm:\n%s", h)
	}
	var flagged bool
	for _, c := range h.Configs {
		if c.QoSDrifting {
			flagged = true
			if c.ObservedQoS >= c.PredictedQoS-qosDriftTolerance {
				t.Errorf("config[%d] flagged with observed %v vs predicted %v", c.Index, c.ObservedQoS, c.PredictedQoS)
			}
		}
	}
	if !flagged {
		t.Errorf("no config has QoSDrifting set:\n%s", h)
	}
}

// TestRuntimeTunerCloseIdempotent pins the double-Close guard: the
// phase:runtime span ends exactly once however many times Close runs,
// and the tuner stays queryable afterwards.
func TestRuntimeTunerCloseIdempotent(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{})
	prev := obs.Install(tr)
	defer obs.Install(prev)

	rt, err := NewRuntimeTuner(healthTestCurve(), PolicyAverage, 0.1, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	recordActive(rt, 0.1)
	rt.Close()
	rt.Close()
	rt.Close()
	var ended int
	for _, rec := range tr.Records() {
		if rec.Name == "phase:runtime" {
			ended++
		}
	}
	if ended != 1 {
		t.Errorf("phase:runtime span recorded %d times after 3 Close calls, want 1", ended)
	}
	if h := rt.Health(); h.Invocations != 1 {
		t.Errorf("Health() after Close lost state: %d invocations", h.Invocations)
	}
}
