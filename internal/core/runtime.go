package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

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
// configuration's speedup inside which a window evaluation holds the
// current choice.
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
// overhead is negligible (§5). Its only selection state is the active
// configuration's index on the curve. A tuner is safe for concurrent
// use: executors Acquire a configuration, run it, and report the
// measured time with RecordInvocationAt under the index they acquired.
type RuntimeTuner struct {
	curve      *pareto.Curve
	policy     Policy
	targetTime float64 // desired per-invocation time (seconds)
	window     int     // sliding window length (invocations)
	rng        *tensor.RNG

	mu    sync.Mutex
	idx   int       // active configuration's position on the curve
	times []float64 // current window's invocation times (tumbling)
	// requiredPerf is the speedup (relative to the exact baseline) the
	// tuner currently believes is needed to hold the target.
	requiredPerf float64
	switches     int
	invocations  int
	curveSwaps   int
	trace        []SwitchEvent
	span         *obs.Span
	closed       bool

	// Health-monitor state (health.go): per-configuration latency
	// histograms and drift detectors indexed by curve position, plus the
	// latched recalibration signal.
	health      []*configHealth
	driftAlarms int
	recalibrate bool
}

// NewRuntimeTuner builds a runtime controller. targetTime is the
// per-invocation time to maintain (typically the baseline configuration's
// time at the highest frequency); window is the sliding-window size in
// invocations (§6.4 uses one batch). The curve must pass CheckCurve's
// relaxed invariants.
func NewRuntimeTuner(curve *pareto.Curve, policy Policy, targetTime float64, window int, seed int64) (*RuntimeTuner, error) {
	if err := errors.Join(CheckCurve(curve, false)...); err != nil {
		return nil, err
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
		health:       make([]*configHealth, curve.Len()),
		span: obs.Start("phase:runtime").
			With("program", curve.Program).With("policy", policy.String()).
			With("target_time", targetTime).With("window", window),
	}
	rt.idx = rt.pick(1)
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
// curve index. The caller keeps the index and feeds it back through
// RecordInvocationAt, so the measurement is attributed to the
// configuration that actually ran even if the controller has moved on
// meanwhile (concurrent workers, queued batches).
func (rt *RuntimeTuner) Acquire() (pareto.Point, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.curve.Points[rt.idx], rt.idx
}

// SwitchTrace returns the retained configuration-switch history (oldest
// first, bounded to the most recent maxSwitchTrace events).
func (rt *RuntimeTuner) SwitchTrace() []SwitchEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]SwitchEvent(nil), rt.trace...)
}

// RecordInvocationAt feeds one invocation's measured execution time to
// the system monitor, attributed to the configuration at curve index idx
// (as returned by Acquire when the invocation started).
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
// (stale executors reporting after a switch) still feed that
// configuration's health monitor but stay out of the control window for
// the same reason; an index outside the curve (acquired from a curve
// since swapped out) is stale too and feeds neither.
func (rt *RuntimeTuner) RecordInvocationAt(idx int, execTime float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.invocations++
	mRtInvocations.Inc()
	if execTime > rt.targetTime {
		mRtMisses.Inc()
	}
	if idx < 0 || idx >= len(rt.curve.Points) {
		return
	}
	rt.observeHealth(idx, execTime)
	if idx != rt.idx {
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

	// The observed average ran under the active configuration, whose
	// speedup is perf; the slowdown attributable to the system is
	// therefore avg·perf relative to the baseline target.
	perf := rt.curve.Points[rt.idx].Perf
	rt.requiredPerf = avg * perf / rt.targetTime
	gRtRequired.Set(rt.requiredPerf)
	// Hysteresis deadband: when the required speedup is within the band
	// around what the active configuration already delivers, hold it —
	// re-picking here only ping-pongs between equal-cost neighbors.
	if math.Abs(rt.requiredPerf-perf) <= DefaultHysteresis*perf {
		return
	}
	if next := rt.pick(rt.requiredPerf); next != rt.idx {
		rt.switchTo(next)
	}
}

// switchTo installs a new active configuration, recording the switch in
// the counters and the bounded trace. Caller holds rt.mu.
func (rt *RuntimeTuner) switchTo(next int) {
	rt.switches++
	mRtSwitches.Inc()
	obs.Flight().Event("runtime.config_switch",
		fmt.Sprintf("from=%d to=%d invocation=%d", rt.idx, next, rt.invocations), obs.TraceID{})
	rt.logSwitch(rt.idx, next)
}

// logSwitch makes next the active index and appends the change to the
// bounded switch trace. Caller holds rt.mu.
func (rt *RuntimeTuner) logSwitch(from, next int) {
	rt.idx = next
	rt.trace = append(rt.trace, SwitchEvent{Invocation: rt.invocations, From: from, To: next})
	if len(rt.trace) > maxSwitchTrace {
		rt.trace = rt.trace[len(rt.trace)-maxSwitchTrace:]
	}
}

// SwapCurve hot-swaps the tradeoff curve the controller selects from —
// the recalibration path: when drift detection reports the shipped curve
// no longer matches the machine, install-time tuning re-runs and the
// fresh curve is installed here without restarting the serving process.
// The per-configuration health state is reset (it is indexed by curve
// position, which is meaningless across curves), the control window is
// cleared, the latched recalibration signal is released, and selection
// restarts from the last required speedup on the new curve. Lifetime
// counters (invocations, switches, drift alarms) are preserved. A curve
// CheckCurve refuses leaves the tuner as it was.
func (rt *RuntimeTuner) SwapCurve(curve *pareto.Curve) error {
	if err := errors.Join(CheckCurve(curve, false)...); err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.curve = curve
	rt.health = make([]*configHealth, curve.Len())
	rt.times = rt.times[:0]
	rt.recalibrate = false
	rt.curveSwaps++
	rt.logSwitch(-1-rt.idx, rt.pick(rt.requiredPerf))
	obs.Flight().Event("runtime.curve_swap",
		fmt.Sprintf("swap=%d to=%d invocation=%d", rt.curveSwaps, rt.idx, rt.invocations), obs.TraceID{})
	return nil
}

// pick returns the curve index achieving the required speedup under the
// active policy: Policy 1 the first point that reaches it (the fastest
// when none does), Policy 2 one of the bracketing pair drawn with the
// mixing weight. Caller holds rt.mu.
func (rt *RuntimeTuner) pick(required float64) int {
	lo, hi, p1 := rt.bracket(required)
	switch {
	case rt.policy == PolicyEnforce:
		return hi
	case p1 >= 1:
		return lo
	case p1 <= 0:
		return hi
	case rt.rng.Float64() < p1:
		return lo
	}
	return hi
}

// bracket locates a required speedup on the curve with one binary search
// (O(log |PS|), §5): hi is the first point whose Perf reaches it (the
// last point when none does) and lo its slower neighbor (hi itself at
// either end of the curve). p1 is Policy 2's probability of the slower
// point, so that p1·Perf_lo + (1-p1)·Perf_hi = required (§5's worked
// example: 1.3 between 1.2 and 1.5 gives 2/3). It is clamped into
// [0,1] so an endpoint is chosen without a draw: 1 when lo and hi share
// a Perf and for NaN (the conservative, least-approximate end), 0 when
// required is at or beyond the faster point. Caller holds rt.mu.
func (rt *RuntimeTuner) bracket(required float64) (lo, hi int, p1 float64) {
	pts := rt.curve.Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Perf >= required })
	lo, hi = max(i-1, 0), min(i, len(pts)-1)
	// bracket endpoints coincide only when they are the same stored curve entry
	if pts[lo].Perf == pts[hi].Perf {
		return lo, hi, 1
	}
	p1 = (pts[hi].Perf - required) / (pts[hi].Perf - pts[lo].Perf)
	if !(p1 < 1) { // also catches NaN
		return lo, hi, 1
	}
	return lo, hi, max(p1, 0)
}
