// Package serve is the adaptive inference serving layer: it runs a
// tensor dataflow graph behind an HTTP API and a dynamic micro-batching
// queue, and drives the runtime tuner from measured batch latencies so
// the service holds a per-request latency SLO by trading approximation
// for speed (the paper's §5 run-time phase, deployed online).
//
// Request path: POST /v1/infer → bounded admission queue (backpressure
// with 429 + Retry-After when full) → micro-batcher coalesces queued
// requests into one batch (graph.ConcatBatch) → a single approximate
// graph execution under the configuration the tuner currently selects →
// graph.SplitBatch fans results back out to the waiting handlers. Every
// batch execution feeds one measured latency back to the tuner
// (RecordInvocationAt with the curve index acquired before the run, so
// samples are always attributed to the configuration that produced
// them); once per control window the tuner re-selects from the tradeoff
// curve. Drift detection surfaces through /healthz (503 once
// RecalibrationNeeded latches) and the serve.recalibration_needed
// gauge; POST /v1/curve hot-swaps a freshly calibrated curve without a
// restart.
//
// The files follow the request: admit.go reads, validates and enqueues
// it, batcher.go executes it, respond.go answers it, and admin.go holds
// the control endpoints (spec, curve swap, health, stats).
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// Defaults for optional Config fields.
const (
	DefaultWindow       = 8
	DefaultMaxBatch     = 8
	DefaultMaxQueue     = 64
	DefaultLinger       = 2 * time.Millisecond
	DefaultDrainTimeout = 10 * time.Second
	// bodyPresize bounds what a Content-Length header may reserve before
	// any of the body has arrived, and the buffers kept for reuse.
	bodyPresize = 1 << 20
)

// Config assembles a Server.
type Config struct {
	// Graph is the compiled model to serve. Required.
	Graph *graph.Graph
	// Curve is the shipped QoS/performance tradeoff curve the tuner
	// selects from. Required; every point's configuration is validated
	// against the graph.
	Curve *pareto.Curve
	// ItemDims is the per-item input shape (without the batch axis),
	// e.g. [1, 28, 28]. Required: admission validates request tensors
	// against it so the batcher only ever coalesces compatible shapes.
	ItemDims []int

	// Policy selects the §5 re-selection policy (default PolicyEnforce).
	Policy core.Policy
	// SLO is the per-request end-to-end latency objective (queue wait +
	// execution). Required. An accepted request waits at most 4×SLO
	// before the batcher expires it; deadline_ms may tighten that.
	SLO time.Duration
	// ExecBudget is the per-batch execution-time target handed to the
	// tuner (its targetTime). Zero defaults to SLO/2, leaving headroom
	// for queueing; approxserve can instead calibrate it from measured
	// baseline executions.
	ExecBudget time.Duration
	// Window is the tuner's control window in batch executions
	// (default DefaultWindow).
	Window int

	// MaxBatch caps the items coalesced into one execution (default
	// DefaultMaxBatch). A single request may carry at most MaxBatch
	// items.
	MaxBatch int
	// MaxQueue bounds the admission queue in requests (default
	// DefaultMaxQueue); a full queue answers 429 + Retry-After.
	MaxQueue int
	// Linger bounds how long the batcher holds a batch open for requests
	// that are provably on their way: ones whose whole body is already in
	// the server, being decoded or admitted. Requests already queued join
	// without any wait, and nothing is waited for otherwise — an idle
	// server dispatches a lone request at once. The bound keeps a
	// descheduled handler from holding the executor (default
	// DefaultLinger).
	Linger time.Duration

	// Seed drives the tuner's and the executor's deterministic RNG.
	Seed int64

	// Tracer, when set, records request-scoped spans for the serving
	// path: a serve:request root per request (continuing an inbound
	// traceparent when present and echoing the identity in the response
	// header), a serve:admit child, and per-batch serve:batch /
	// serve:execute / serve:tuner spans linking every member request's
	// trace. Nil disables request tracing; the disabled path stays
	// allocation-free.
	Tracer *obs.Tracer
	// Sampler receives the tail-sampling decision for every finished
	// request trace. Register it as a sink on Tracer so it sees the span
	// records it buffers. Nil disables sampling.
	Sampler *obs.TailSampler
	// FlightLog, when set, receives one automatic flight-recorder JSONL
	// dump on the first drift latch and one on the first non-draining
	// /healthz 503 (re-armed by a curve swap). The dumps come from
	// different goroutines (batcher and HTTP handlers) but the server
	// serializes them, so a plain *os.File works.
	FlightLog io.Writer

	// SlowdownFactor > 1 stretches every batch's wall time by that
	// factor once SlowdownAfter batches have run — the injected-slowdown
	// hook trace-smoke uses to provoke a real drift latch end to end.
	SlowdownFactor float64
	// SlowdownAfter is the batch count after which SlowdownFactor
	// applies.
	SlowdownAfter int
	// MeasureExec, when set, replaces the wall clock as the batch
	// latency source fed to the tuner: it receives the executed
	// configuration and item count and returns seconds. Tests and
	// simulations use it to make the control loop's input — and hence
	// its switch trace — fully deterministic.
	MeasureExec func(cfg approx.Config, items int) float64
	// DrainTimeout bounds Close's graceful drain (default
	// DefaultDrainTimeout).
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.Linger <= 0 {
		c.Linger = DefaultLinger
	}
	if c.ExecBudget <= 0 {
		c.ExecBudget = c.SLO / 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

// Server is one serving instance: an admission queue, a micro-batcher
// goroutine, and the runtime tuner controlling the approximation level.
type Server struct {
	cfg   Config
	tuner *core.RuntimeTuner
	rng   *tensor.RNG

	queue    chan *pending
	loopDone chan struct{}
	// held is a request the batcher pulled but deferred to the next
	// batch (it would overflow MaxBatch). Loop-goroutine private.
	held *pending
	// arriving counts handlers that hold a complete request body and
	// have neither enqueued nor refused it yet: the only requests the
	// batcher waits for. Each one leaving the count pokes the batcher
	// (see arrived); a nil poke, as in a hand-built test server, only
	// loses the wake-up, and the wait is still bounded by Linger.
	arriving atomic.Int64
	poke     chan struct{}

	mu       sync.Mutex
	draining bool
	enqWG    sync.WaitGroup // admissions racing Shutdown's queue close
	trace    []int          // curve index executed per batch, bounded

	hs atomic.Pointer[obs.Server] // the listener Start bound, if any

	// slowNs is the live "slow request" threshold for tail sampling,
	// re-derived from the request-latency quantile every slowRefreshEvery;
	// slowAt is when, loop-goroutine private.
	slowNs atomic.Int64
	slowAt time.Time
	// flightMu serializes the automatic FlightLog dumps: the drift latch
	// (batcher goroutine) and the /healthz 503 transition (handler
	// goroutine) can fire concurrently, and FlightLog is typically a
	// plain *os.File whose JSONL lines must not interleave.
	flightMu sync.Mutex
	// driftLatched / healthDumped gate the one-shot automatic flight
	// dumps (re-armed by a curve swap).
	driftLatched atomic.Bool
	healthDumped atomic.Bool

	stats stats
}

// runnable checks that g can run every configuration on curve c.
func runnable(g *graph.Graph, c *pareto.Curve) error {
	for i, pt := range c.Points {
		if err := g.ValidateConfig(pt.Config); err != nil {
			return fmt.Errorf("curve point %d: %w", i, err)
		}
	}
	return nil
}

// New validates the configuration, builds the tuner and starts the
// batcher. The server accepts work immediately through Handler; Start
// additionally binds a listener.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	if cfg.Curve == nil || cfg.Curve.Len() == 0 {
		return nil, fmt.Errorf("serve: empty tradeoff curve")
	}
	if len(cfg.ItemDims) == 0 {
		return nil, fmt.Errorf("serve: missing per-item input dims")
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("serve: missing latency SLO")
	}
	if err := runnable(cfg.Graph, cfg.Curve); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		tuner:    rt,
		rng:      tensor.NewRNG(cfg.Seed + 1),
		queue:    make(chan *pending, cfg.MaxQueue),
		loopDone: make(chan struct{}),
		poke:     make(chan struct{}, 1),
	}
	// Pre-pack weight panels once so the first request doesn't pay the
	// packing cost inside its latency budget.
	cfg.Graph.PrepackWeights()
	go s.loop()
	return s, nil
}

// Tuner exposes the runtime controller (switch traces, health
// snapshots, hysteresis adjustment).
func (s *Server) Tuner() *core.RuntimeTuner { return s.tuner }

// BatchTrace returns the curve index executed by each batch so far,
// oldest first (bounded like the tuner's switch trace). Two runs with
// the same seed, request sequence and MeasureExec hook produce
// identical traces regardless of GOMAXPROCS.
func (s *Server) BatchTrace() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.trace...)
}

// Start binds addr and serves the HTTP API until Close. It returns once
// the listener is bound; use Addr for the chosen port with ":0".
func (s *Server) Start(addr string) error {
	hs, err := obs.Listen(addr, s.Handler())
	if err != nil {
		return err
	}
	s.hs.Store(hs)
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	if hs := s.hs.Load(); hs != nil {
		return hs.Addr
	}
	return ""
}

// Shutdown drains gracefully: new admissions are refused with 503,
// every queued request is executed (or expired against its deadline),
// and the batcher exits. It then closes the HTTP server, waiting for
// in-flight handlers, and the tuner. Returns ctx.Err() if the drain
// outlives the context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// All admissions observe draining before enqWG.Wait returns, so
		// nothing can slip into the queue after it is closed.
		s.enqWG.Wait()
		close(s.queue)
	}
	select {
	case <-s.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	if hs := s.hs.Load(); hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	s.tuner.Close()
	return nil
}

// Close drains with the configured DrainTimeout and then force-closes
// whatever remains.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.Shutdown(ctx)
	if hs := s.hs.Load(); hs != nil {
		_ = hs.Close()
	}
	return err
}

// Handler returns the serving API, every route counted by obs.Route
// under its pattern:
//
//	POST /v1/infer     — run inference (micro-batched, SLO-controlled)
//	GET  /v1/spec      — serving contract (shapes, SLO, queue limits)
//	POST /v1/curve     — hot-swap a freshly calibrated tradeoff curve
//	GET  /healthz      — liveness; 503 while draining or once drift latches
//	GET  /statz        — control-loop and queue state snapshot (JSON)
//	GET  /metrics      — process metrics (OpenMetrics 1.0, with exemplars)
//	GET  /debug/flight — flight-recorder dump (JSONL, recent spans+events)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern string
		h       http.Handler
	}{
		{"POST /v1/infer", http.HandlerFunc(s.handleInfer)},
		{"GET /v1/spec", http.HandlerFunc(s.handleSpec)},
		{"POST /v1/curve", http.HandlerFunc(s.handleCurve)},
		{"GET /healthz", http.HandlerFunc(s.handleHealthz)},
		{"GET /statz", http.HandlerFunc(s.handleStatz)},
		{"GET /metrics", obs.MetricsHandler(nil)},
		{"GET /debug/flight", obs.Flight().Handler()},
	} {
		mux.Handle(rt.pattern, obs.Route(rt.pattern, rt.h))
	}
	return mux
}
