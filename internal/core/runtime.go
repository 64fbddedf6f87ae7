package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/approx"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// Runtime-adaptation telemetry: invocation counts, configuration
// switches, invocations that missed the performance target, and the
// speedup the controller currently demands.
var (
	mRtInvocations = obs.NewCounter("runtime.invocations")
	mRtSwitches    = obs.NewCounter("runtime.config_switches")
	mRtMisses      = obs.NewCounter("runtime.target_misses")
	gRtRequired    = obs.NewGauge("runtime.required_perf")
)

// Policy selects the run-time configuration-selection strategy (§5).
type Policy int

const (
	// PolicyEnforce picks a configuration with performance no smaller
	// than the target in every invocation — an O(log |PS|) binary search,
	// suited to (soft) real-time deadlines.
	PolicyEnforce Policy = iota
	// PolicyAverage probabilistically mixes the two configurations
	// bracketing the target so that p1·Perf1 + p2·Perf2 = PerfT, matching
	// the target throughput on average.
	PolicyAverage
)

func (p Policy) String() string {
	if p == PolicyAverage {
		return "average"
	}
	return "enforce"
}

// DefaultHysteresis is the relative deadband around the active
// configuration's speedup inside which the controller holds its choice.
// Without it, measurement noise around a curve point's exact Perf (or a
// required speedup landing between two equal-cost neighbors) makes the
// per-window re-selection ping-pong between adjacent configurations even
// though either satisfies the target equally well.
const DefaultHysteresis = 0.05

// maxSwitchTrace bounds the retained switch history; older events are
// dropped first. 4096 windows of history is far more than any SLO
// post-mortem needs while keeping the tuner's footprint fixed.
const maxSwitchTrace = 4096

// SwitchEvent records one configuration change: the invocation count at
// which it happened and the curve indices switched between. A negative
// From marks the switch installed by a curve hot-swap (SwapCurve).
type SwitchEvent struct {
	Invocation int `json:"invocation"`
	From       int `json:"from"`
	To         int `json:"to"`
}

// RuntimeTuner adapts approximation settings at run time to hold a
// performance target under changing system conditions. It consumes the
// final tradeoff curve shipped with the binary; switching configurations
// is just switching numerical parameters of the tensor ops, so the
// overhead is negligible (§5). A tuner is safe for concurrent use: the
// monitor thread may feed RecordInvocation while worker threads read
// Current/CurrentPoint.
type RuntimeTuner struct {
	curve      *pareto.Curve
	policy     Policy
	targetTime float64 // desired per-invocation time (seconds)
	window     int     // sliding window length (invocations)
	rng        *tensor.RNG

	mu      sync.Mutex
	times   []float64 // current window's invocation times (tumbling)
	current pareto.Point
	curIdx  int // index of current on the curve
	// requiredPerf is the speedup (relative to the exact baseline) the
	// tuner currently believes is needed to hold the target.
	requiredPerf float64
	// hysteresis is the relative deadband around current.Perf inside
	// which a window evaluation keeps the active configuration.
	hysteresis  float64
	switches    int
	invocations int
	curveSwaps  int
	trace       []SwitchEvent
	span        *obs.Span
	closed      bool

	// Health-monitor state (health.go): per-configuration latency
	// histograms and drift detectors, plus the latched recalibration
	// signal.
	health      map[int]*configHealth
	driftAlarms int
	recalibrate bool
}

// NewRuntimeTuner builds a runtime controller. targetTime is the
// per-invocation time to maintain (typically the baseline configuration's
// time at the highest frequency); window is the sliding-window size in
// invocations (§6.4 uses one batch).
func NewRuntimeTuner(curve *pareto.Curve, policy Policy, targetTime float64, window int, seed int64) (*RuntimeTuner, error) {
	if curve == nil || curve.Len() == 0 {
		return nil, fmt.Errorf("core: runtime tuner needs a non-empty tradeoff curve")
	}
	if targetTime <= 0 || window <= 0 {
		return nil, fmt.Errorf("core: bad runtime target %v / window %d", targetTime, window)
	}
	rt := &RuntimeTuner{
		curve:        curve,
		policy:       policy,
		targetTime:   targetTime,
		window:       window,
		rng:          tensor.NewRNG(seed),
		requiredPerf: 1,
		hysteresis:   DefaultHysteresis,
		span: obs.Start("phase:runtime").
			With("program", curve.Program).With("policy", policy.String()).
			With("target_time", targetTime).With("window", window),
	}
	rt.current = rt.pick(1)
	rt.curIdx = rt.indexOf(rt.current)
	return rt, nil
}

// Close ends the tuner's phase:runtime trace span, attaching the final
// invocation, switch and drift-alarm counts. Close is idempotent: only
// the first call ends the span, so a deferred Close alongside an
// explicit one cannot double-end it. Safe on tuners created while
// tracing was disabled.
func (rt *RuntimeTuner) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	rt.span.With("invocations", rt.invocations).With("switches", rt.switches).
		With("drift_alarms", rt.driftAlarms).End()
}

// Current returns the configuration to use for the next invocation. Under
// PolicyAverage this may alternate probabilistically between the two
// bracketing points.
func (rt *RuntimeTuner) Current() approx.Config {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.current.Config
}

// CurrentPoint returns the active tradeoff point.
func (rt *RuntimeTuner) CurrentPoint() pareto.Point {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.current
}

// Switches counts configuration changes so far.
func (rt *RuntimeTuner) Switches() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.switches
}

// CurveSwaps counts hot-swaps of the tradeoff curve (SwapCurve calls).
func (rt *RuntimeTuner) CurveSwaps() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.curveSwaps
}

// Acquire returns the configuration to execute next together with its
// curve index. Executors that may report measurements after the
// controller has moved on (concurrent workers, queued batches) must
// remember the index and feed it back through RecordInvocationAt so the
// sample is attributed to the configuration that actually ran it.
func (rt *RuntimeTuner) Acquire() (pareto.Point, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.current, rt.curIdx
}

// SwitchTrace returns the retained configuration-switch history (oldest
// first, bounded to the most recent maxSwitchTrace events).
func (rt *RuntimeTuner) SwitchTrace() []SwitchEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]SwitchEvent(nil), rt.trace...)
}

// SetHysteresis adjusts the relative deadband around the active
// configuration's speedup inside which window evaluations hold the
// current choice (default DefaultHysteresis). Non-finite or negative
// values are ignored.
func (rt *RuntimeTuner) SetHysteresis(h float64) {
	if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.hysteresis = h
}

// RecordInvocation feeds one invocation's measured execution time to the
// system monitor, attributed to the currently active configuration. Use
// RecordInvocationAt when the executing goroutine acquired its
// configuration earlier (and the controller may have switched since).
func (rt *RuntimeTuner) RecordInvocation(execTime float64) {
	rt.RecordInvocationAt(-1, execTime)
}

// RecordInvocationAt feeds one invocation's measured execution time to
// the system monitor, attributed to the configuration at curve index idx
// (as returned by Acquire when the invocation started; idx < 0 means the
// currently active configuration).
//
// The control window is a tumbling window over the *active*
// configuration only: samples accumulate until the window fills, the
// controller evaluates once, and the window restarts empty. Re-selection
// therefore happens at most once per full window (§5's batch-granularity
// monitor), never on every invocation, and a window never mixes samples
// measured under different configurations — mixing them would corrupt
// systemSlowdown = avg·Perf/target, which is only meaningful when every
// sample in the average ran under the configuration whose Perf scales
// it. Samples attributed to a configuration other than the active one
// (stale executors reporting after a switch) still feed the per-config
// health monitor but stay out of the control window for the same reason.
func (rt *RuntimeTuner) RecordInvocationAt(idx int, execTime float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.invocations++
	mRtInvocations.Inc()
	if execTime > rt.targetTime {
		mRtMisses.Inc()
	}
	if idx < 0 || idx >= rt.curve.Len() {
		idx = rt.curIdx
	}
	rt.observeHealth(idx, execTime)
	if idx != rt.curIdx {
		// Stale attribution: the sample ran under a configuration the
		// controller has already left. It must not enter the window —
		// its magnitude reflects a different Perf scale.
		return
	}
	rt.times = append(rt.times, execTime)
	if len(rt.times) < rt.window {
		return
	}
	var avg float64
	for _, t := range rt.times {
		avg += t
	}
	avg /= float64(len(rt.times))
	rt.times = rt.times[:0] // tumbling window: evaluate once, restart empty

	// The observed average ran under the current configuration, whose
	// speedup is current.Perf; the slowdown attributable to the system is
	// therefore avg·Perf relative to the baseline target.
	systemSlowdown := avg * rt.current.Perf / rt.targetTime
	rt.requiredPerf = systemSlowdown
	gRtRequired.Set(rt.requiredPerf)
	// Hysteresis deadband: when the required speedup is within the band
	// around what the active configuration already delivers, hold it —
	// re-picking here only ping-pongs between equal-cost neighbors.
	if math.Abs(systemSlowdown-rt.current.Perf) <= rt.hysteresis*rt.current.Perf {
		return
	}
	next := rt.pick(rt.requiredPerf)
	// curve points are discrete entries; a switch is a change of identity, not of magnitude
	if next.Perf != rt.current.Perf || !sameConfig(next.Config, rt.current.Config) {
		rt.switchTo(next)
	}
}

// switchTo installs a new active configuration, recording the switch in
// the counters and the bounded trace. Caller holds rt.mu.
func (rt *RuntimeTuner) switchTo(next pareto.Point) {
	from := rt.curIdx
	rt.switches++
	mRtSwitches.Inc()
	rt.current = next
	rt.curIdx = rt.indexOf(next)
	rt.trace = append(rt.trace, SwitchEvent{Invocation: rt.invocations, From: from, To: rt.curIdx})
	if len(rt.trace) > maxSwitchTrace {
		rt.trace = rt.trace[len(rt.trace)-maxSwitchTrace:]
	}
	obs.Flight().Event("runtime.config_switch",
		fmt.Sprintf("from=%d to=%d invocation=%d", from, rt.curIdx, rt.invocations), obs.TraceID{})
}

// SwapCurve hot-swaps the tradeoff curve the controller selects from —
// the recalibration path: when drift detection reports the shipped curve
// no longer matches the machine, install-time tuning re-runs and the
// fresh curve is installed here without restarting the serving process.
// The per-configuration health state is reset (it is keyed by curve
// index, which is meaningless across curves), the control window is
// cleared, the latched recalibration signal is released, and selection
// restarts from the last required speedup on the new curve. Lifetime
// counters (invocations, switches, drift alarms) are preserved.
func (rt *RuntimeTuner) SwapCurve(curve *pareto.Curve) error {
	if curve == nil || curve.Len() == 0 {
		return fmt.Errorf("core: curve swap needs a non-empty tradeoff curve")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.curve = curve
	rt.health = nil
	rt.times = rt.times[:0]
	rt.recalibrate = false
	rt.curveSwaps++
	from := rt.curIdx
	rt.current = rt.pick(rt.requiredPerf)
	rt.curIdx = rt.indexOf(rt.current)
	rt.trace = append(rt.trace, SwitchEvent{Invocation: rt.invocations, From: -1 - from, To: rt.curIdx})
	if len(rt.trace) > maxSwitchTrace {
		rt.trace = rt.trace[len(rt.trace)-maxSwitchTrace:]
	}
	obs.Flight().Event("runtime.curve_swap",
		fmt.Sprintf("swap=%d to=%d invocation=%d", rt.curveSwaps, rt.curIdx, rt.invocations), obs.TraceID{})
	return nil
}

func sameConfig(a, b approx.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b.Knob(k) != v {
			return false
		}
	}
	return true
}

// pick selects a tradeoff point achieving the required speedup under the
// active policy.
func (rt *RuntimeTuner) pick(required float64) pareto.Point {
	switch rt.policy {
	case PolicyEnforce:
		if pt, ok := rt.curve.AtLeastPerf(required); ok {
			return pt
		}
		// Nothing reaches the target; degrade as gracefully as possible.
		return rt.curve.Points[rt.curve.Len()-1]
	default: // PolicyAverage
		below, above, _ := rt.curve.Bracket(required)
		// bracket endpoints coincide only when they are the same stored curve entry
		if below.Perf == above.Perf {
			return below
		}
		// p1·Perf1 + p2·Perf2 = PerfT with p1 + p2 = 1. When the target
		// falls outside [below.Perf, above.Perf] (endpoint extrapolation,
		// or a hand-built curve whose points defeat the bracket search)
		// the raw p1 leaves [0,1]: return the endpoint deterministically
		// instead of drawing a nonsense probability.
		p1 := mixWeight(below.Perf, above.Perf, required)
		if p1 >= 1 {
			return below
		}
		if p1 <= 0 {
			return above
		}
		if rt.rng.Float64() < p1 {
			return below
		}
		return above
	}
}

// mixWeight computes the Policy-2 probability of the slower bracket
// point, clamped into [0,1]: required at or below the slow endpoint
// returns 1 (always the slow point), at or above the fast endpoint 0
// (always the fast point). NaN inputs clamp to 1, the conservative
// (least-approximate) endpoint.
func mixWeight(belowPerf, abovePerf, required float64) float64 {
	p1 := (abovePerf - required) / (abovePerf - belowPerf)
	if !(p1 < 1) { // also catches NaN
		return 1
	}
	if p1 < 0 {
		return 0
	}
	return p1
}

// MixProbabilities exposes the Policy-2 mixing weights for a target
// speedup — (p1 for the slower point, p2 for the faster point) — mainly
// for testing and for the worked example in §5 (PerfT = 1.3 with points
// 1.2 and 1.5 gives 2/3 and 1/3). The weights are always valid
// probabilities: a target outside the curve's Perf range clamps to the
// nearest endpoint ((1,0) at or below the slowest point, (0,1) at or
// above the fastest).
func (rt *RuntimeTuner) MixProbabilities(required float64) (below, above pareto.Point, p1, p2 float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	below, above, _ = rt.curve.Bracket(required)
	// bracket endpoints coincide only when they are the same stored curve entry
	if below.Perf == above.Perf {
		return below, above, 1, 0
	}
	p1 = mixWeight(below.Perf, above.Perf, required)
	return below, above, p1, 1 - p1
}
