// Package obs is the repository's stdlib-only observability layer: a
// hierarchical span tracer, a metrics registry (counters, gauges,
// log-scale histograms), the flight recorder (the one in-memory store of
// recent spans and events), and exporters (JSONL trace files, a
// human-readable tree summary, and an opt-in HTTP endpoint serving the
// OpenMetrics exposition, the flight recorder and net/http/pprof).
//
// The paper's entire evaluation (§6, Tables 3–4, Figs 6–9) is built from
// per-phase timings, per-iteration tuner telemetry and per-op cost/QoS
// attributions; this package is the machinery that records them. The
// three tuning phases (development-time, install-time, run-time), profile
// collection, autotuner iterations and per-node graph execution all emit
// spans and metrics through it.
//
// Design rules:
//
//   - Metrics are always-on atomic counters: an increment is a few
//     nanoseconds and never allocates, so the tensor kernels can count
//     invocations unconditionally.
//   - Tracing is opt-in. With no tracer installed every span entry point
//     returns a nil *Span, and every Span method is nil-safe, so the
//     disabled path costs one atomic pointer load and zero allocations.
//   - Both spans and the Stopwatch in internal/core read the same
//     monotonic clock (Now), so Table-4 style phase timings and trace
//     durations agree by construction.
package obs

import (
	"sync/atomic"
	"time"
)

// clockBase anchors the package's monotonic clock. time.Since uses the
// monotonic reading of clockBase, so Now is immune to wall-clock steps.
var clockBase = time.Now()

// Now returns monotonic nanoseconds since process start — the single
// clock source for spans, stopwatches and phase timings.
func Now() int64 { return int64(time.Since(clockBase)) }

// global holds the installed tracer; nil means tracing is disabled.
var global atomic.Pointer[Tracer]

// Install makes t the process-wide tracer that Start opens root spans on.
// Passing nil disables tracing. Install returns the previous tracer
// (possibly nil) so tests can restore it.
func Install(t *Tracer) *Tracer { return global.Swap(t) }

// Start opens a root span on the installed tracer. It returns nil (a
// valid no-op span) when tracing is disabled.
func Start(name string) *Span { return global.Load().Start(name) }
