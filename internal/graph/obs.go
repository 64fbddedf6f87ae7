package graph

import (
	"repro/internal/approx"
	"repro/internal/obs"
)

// Execution metrics (§6-style per-op attribution): every node execution
// counts a kernel invocation, split into exact vs approximated and by
// knob kind. Counting is always on — it is a handful of wait-free atomic
// adds next to kernels that run for microseconds to milliseconds.
var (
	mKernels   = obs.NewCounter("graph.kernel_invocations")
	mOpsExact  = obs.NewCounter("graph.ops_exact")
	mOpsApprox = obs.NewCounter("graph.ops_approximated")
	mExecs     = obs.NewCounter("graph.executions")
	// mTanhMoves counts max pools that applied their input convolution's
	// tanh to the pooled values (tanhPastPool).
	mTanhMoves = obs.NewCounter("graph.tanh_past_pool")

	// kindCounters caches the per-knob-kind counters so the hot path
	// avoids the CounterVec map lookup.
	kindCounters [int(approx.KindPromise) + 1]*obs.Counter
)

func init() {
	vec := obs.NewCounterVec("graph.kernel_invocations_by_knob")
	for k := range kindCounters {
		kindCounters[k] = vec.With(approx.Kind(k).String())
	}
}

// observeNode records the metrics for one node execution.
func observeNode(knob approx.Knob) {
	mKernels.Inc()
	if knob.IsBaseline() {
		mOpsExact.Inc()
	} else {
		mOpsApprox.Inc()
	}
	if int(knob.Kind) < len(kindCounters) {
		kindCounters[knob.Kind].Inc()
	}
}

// traceExec opens the per-execution span (nil without a trace parent) and
// reports whether per-node child spans should be recorded, honoring the
// tracer's graph-detail budget.
func (g *Graph) traceExec(parent *obs.Span, mode string) (*obs.Span, bool) {
	mExecs.Inc()
	if parent == nil {
		return nil, false
	}
	sp := parent.Child("graph:"+g.Name).With("mode", mode).With("nodes", len(g.Nodes))
	return sp, sp.AcquireDetail()
}

// nodeLabel names a node span.
func nodeLabel(n *Node) string {
	if n.Name != "" {
		return n.Name
	}
	return n.Kind.String()
}
