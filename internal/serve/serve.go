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
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
	// readHeaderTimeout bounds header reads on the listener so a
	// slowloris peer cannot pin accept slots (same rationale as
	// obs.ServeMetrics).
	readHeaderTimeout = 5 * time.Second
	// maxBodyBytes bounds an inference request body.
	maxBodyBytes = 64 << 20
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
	// execution). Required.
	SLO time.Duration
	// ExecBudget is the per-batch execution-time target handed to the
	// tuner (its targetTime). Zero defaults to SLO/2, leaving headroom
	// for queueing; approxserve can instead calibrate it from measured
	// baseline executions.
	ExecBudget time.Duration
	// Window is the tuner's control window in batch executions
	// (default DefaultWindow).
	Window int
	// Hysteresis overrides the tuner's re-selection deadband: 0 keeps
	// core.DefaultHysteresis, negative disables the band entirely.
	Hysteresis float64

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
	// MaxWait caps how long an accepted request may wait end-to-end
	// before the batcher expires it (default 4×SLO). Requests may
	// tighten it per-call via deadline_ms.
	MaxWait time.Duration

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
	if c.MaxWait <= 0 {
		c.MaxWait = 4 * c.SLO
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

	ln   net.Listener
	hsrv *http.Server

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
	for i, pt := range cfg.Curve.Points {
		if err := cfg.Graph.ValidateConfig(pt.Config); err != nil {
			return nil, fmt.Errorf("serve: curve point %d: %w", i, err)
		}
	}
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Hysteresis > 0 {
		rt.SetHysteresis(cfg.Hysteresis)
	} else if cfg.Hysteresis < 0 {
		rt.SetHysteresis(0)
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	hsrv := s.hsrv
	s.mu.Unlock()
	go func() {
		_ = hsrv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
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
	hsrv := s.hsrv
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
	if hsrv != nil {
		if err := hsrv.Shutdown(ctx); err != nil {
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
	s.mu.Lock()
	hsrv := s.hsrv
	s.mu.Unlock()
	if hsrv != nil {
		_ = hsrv.Close()
	}
	return err
}

// TensorJSON is the wire form of a dense float32 tensor.
type TensorJSON struct {
	Dims []int     `json:"dims"`
	Data []float32 `json:"data"`
}

// InferRequest is the POST /v1/infer body. DeadlineMs optionally
// tightens the request's end-to-end deadline below the server's
// MaxWait; the deadline propagates by context into the batcher, which
// expires late requests instead of executing them.
type InferRequest struct {
	Input      TensorJSON `json:"input"`
	DeadlineMs float64    `json:"deadline_ms,omitempty"`
}

// InferResponse is the POST /v1/infer reply: the output tensor plus the
// approximation configuration that produced it and the request's
// queue/execution breakdown.
type InferResponse struct {
	Output      TensorJSON `json:"output"`
	Config      string     `json:"config"`
	ConfigIndex int        `json:"config_index"`
	BatchItems  int        `json:"batch_items"`
	QueueMs     float64    `json:"queue_ms"`
	ExecMs      float64    `json:"exec_ms"`
}

// SpecResponse describes the serving endpoint (GET /v1/spec).
type SpecResponse struct {
	Program  string  `json:"program"`
	ItemDims []int   `json:"item_dims"`
	SLOMs    float64 `json:"slo_ms"`
	MaxBatch int     `json:"max_batch"`
	MaxQueue int     `json:"max_queue"`
	Policy   string  `json:"policy"`
	Points   int     `json:"points"`
}

// Handler returns the serving API:
//
//	POST /v1/infer     — run inference (micro-batched, SLO-controlled)
//	GET  /v1/spec      — serving contract (shapes, SLO, queue limits)
//	POST /v1/curve     — hot-swap a freshly calibrated tradeoff curve
//	GET  /healthz      — liveness; 503 while draining or once drift latches
//	GET  /statz        — control-loop and queue state snapshot (JSON)
//	GET  /metrics      — process metrics (JSON or Prometheus text)
//	GET  /debug/flight — flight-recorder dump (JSONL, recent spans+events)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/infer", timed("/v1/infer", http.HandlerFunc(s.handleInfer)))
	mux.Handle("GET /v1/spec", timed("/v1/spec", http.HandlerFunc(s.handleSpec)))
	mux.Handle("POST /v1/curve", timed("/v1/curve", http.HandlerFunc(s.handleCurve)))
	mux.Handle("GET /healthz", timed("/healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /statz", timed("/statz", http.HandlerFunc(s.handleStatz)))
	mux.Handle("GET /metrics", timed("/metrics", obs.MetricsHandler(nil)))
	mux.Handle("GET /debug/flight", timed("/debug/flight", obs.Flight().Handler()))
	return mux
}

// timed wraps a route with the per-endpoint latency histogram, labeled
// by the route pattern (never the raw URL, which is unbounded).
func timed(route string, next http.Handler) http.Handler {
	h := qEndpoint.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		h.Observe(time.Since(start).Seconds())
	})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	mRequests.Inc()
	gInFlight.Add(1)
	defer gInFlight.Add(-1)

	start := time.Now()
	//lint:ignore spanend finishRequest ends the request span once latency and status are known
	sp := s.startRequestSpan(w, r)
	var sw0, al0 int
	if sp != nil {
		// Baseline tuner-event counters: a switch or drift alarm landing
		// while this request is in flight makes its trace "eventful".
		sw0, al0 = s.tuner.Switches(), s.tuner.DriftAlarms()
	}
	status := s.serveInfer(w, r, sp)
	s.finishRequest(sp, time.Since(start), status, sw0, al0)
}

// startRequestSpan opens the per-request root span when request tracing
// is enabled, continuing an inbound traceparent when one arrived, and
// echoes the request's identity in the response header so clients can
// report trace IDs. Returns nil — without touching the header or
// allocating — when tracing is disabled.
func (s *Server) startRequestSpan(w http.ResponseWriter, r *http.Request) *obs.Span {
	tr := s.cfg.Tracer
	if tr == nil {
		return nil
	}
	sp := tr.StartRemote(obs.Extract(r.Header), "serve:request")
	w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(sp.Context()))
	return sp
}

// finishRequest ends the request's root span and makes the tail-sampling
// decision now that latency, status and tuner-event overlap are known.
// The latency histogram is fed here: with a trace-linked exemplar when
// the trace was kept, plain otherwise — so every exposed exemplar
// references a retrievable trace.
func (s *Server) finishRequest(sp *obs.Span, total time.Duration, status int, sw0, al0 int) {
	sec := total.Seconds()
	if sp == nil {
		if status == http.StatusOK {
			qRequest.Observe(sec)
		}
		return
	}
	sp.With("status", status)
	sp.End()
	tid := sp.TraceID()
	thr := s.slowNs.Load()
	v := obs.Verdict{
		Slow:     thr > 0 && total.Nanoseconds() >= thr,
		Errored:  status == http.StatusTooManyRequests || status >= http.StatusInternalServerError,
		Eventful: s.tuner.Switches() != sw0 || s.tuner.DriftAlarms() != al0,
	}
	kept := false
	if s.cfg.Sampler != nil {
		kept, _ = s.cfg.Sampler.Finish(tid, v)
	}
	if status != http.StatusOK {
		return
	}
	if kept {
		qRequest.ObserveExemplar(sec, tid)
	} else {
		qRequest.Observe(sec)
	}
}

// serveInfer is the request body of POST /v1/infer: admit, wait for the
// batcher's answer, reply. It returns the HTTP status it wrote.
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, sp *obs.Span) int {
	p, cancel, status := s.admit(w, r, sp)
	if p == nil {
		return status
	}
	defer cancel()

	// The batcher owns the request now and answers exactly once —
	// including expiry against the context deadline.
	res := <-p.res
	if res.err != nil {
		if p.ctx.Err() != nil {
			s.stats.expired.Add(1)
			mExpired.Inc()
			obs.Flight().Event("serve.deadline_expired", "", sp.TraceID())
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded before execution")
			return http.StatusGatewayTimeout
		}
		s.stats.failed.Add(1)
		mFailed.Inc()
		httpError(w, http.StatusInternalServerError, res.err.Error())
		return http.StatusInternalServerError
	}
	total := time.Since(p.enq)
	if total > s.cfg.SLO {
		s.stats.sloMisses.Add(1)
		mSLOMiss.Inc()
	}
	sp.With("config", res.cfgLabel).With("batch_items", res.batchItems)
	s.stats.served.Add(1)
	writeJSON(w, http.StatusOK, InferResponse{
		Output:      TensorJSON{Dims: res.out.Shape().Dims(), Data: res.out.Data()},
		Config:      res.cfgLabel,
		ConfigIndex: res.cfgIdx,
		BatchItems:  res.batchItems,
		QueueMs:     res.queueWait.Seconds() * 1e3,
		ExecMs:      res.exec.Seconds() * 1e3,
	})
	return http.StatusOK
}

// admit parses, validates and enqueues one request under a serve:admit
// child span. On rejection it answers the request itself and returns a
// nil pending with the status written; on success the batcher owns the
// returned pending and the caller must invoke the cancel func.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, sp *obs.Span) (*pending, context.CancelFunc, int) {
	asp := sp.Child("serve:admit")
	defer asp.End()

	var req InferRequest
	body, err := readBody(w, r, maxBodyBytes)
	// The decoder copies what it keeps, errors included.
	defer releaseBody(body)
	if err == nil {
		// The whole request is in memory: from here until it is enqueued
		// or refused, the batcher may wait for it.
		s.arriving.Add(1)
		defer s.arrived()
		err = decodeInferRequest(body.Bytes(), &req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return nil, nil, http.StatusBadRequest
	}
	in, items, err := s.admitTensor(req.Input)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil, http.StatusBadRequest
	}
	if items > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request carries %d items, server max_batch is %d", items, s.cfg.MaxBatch))
		return nil, nil, http.StatusRequestEntityTooLarge
	}
	asp.With("items", items)

	wait := s.cfg.MaxWait
	if req.DeadlineMs > 0 {
		if d := time.Duration(req.DeadlineMs * float64(time.Millisecond)); d < wait {
			wait = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	p := &pending{in: in, items: items, ctx: ctx, enq: time.Now(), res: make(chan result, 1), sc: sp.Context()}
	switch s.enqueue(p) {
	case admitOK:
		return p, cancel, http.StatusOK
	case admitDraining:
		cancel()
		s.stats.rejected.Add(1)
		mRejectedDrain.Inc()
		obs.Flight().Event("serve.rejected_draining", "", sp.TraceID())
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, nil, http.StatusServiceUnavailable
	default: // admitFull
		cancel()
		s.stats.rejected.Add(1)
		mRejectedFull.Inc()
		obs.Flight().Event("serve.rejected_full", "", sp.TraceID())
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "admission queue full")
		return nil, nil, http.StatusTooManyRequests
	}
}

// bodies recycles request-body buffers between requests: at a thousand
// small requests a second the bodies were an eighth of the server's
// garbage, and the garbage made during a collection is what the process
// holds beyond its live heap.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads an inference request body of at most limit bytes into a
// buffer from the pool; the caller hands it to releaseBody once nothing
// refers to its bytes. A declared Content-Length sizes the buffer before
// the read — up to bodyPresize, so that a header alone cannot reserve
// more — where growing from 512 bytes copies a body two and a half times.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	// bytes.MinRead of spare room lets ReadFrom see EOF without growing.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

// releaseBody returns a buffer to the pool, unless one large request
// would then stay allocated for as long as small ones keep it in use.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= bodyPresize {
		bodies.Put(buf)
	}
}

// admitTensor validates a request tensor against the serving item shape
// and normalizes it to an explicit batch axis. The tensor takes over
// tj.Data, which the decoder allocated for this request alone.
func (s *Server) admitTensor(tj TensorJSON) (*tensor.Tensor, int, error) {
	item := s.cfg.ItemDims
	var dims []int
	switch {
	case len(tj.Dims) == len(item) && sameInts(tj.Dims, item):
		dims = append([]int{1}, item...)
	case len(tj.Dims) == len(item)+1 && tj.Dims[0] >= 1 && sameInts(tj.Dims[1:], item):
		dims = append([]int(nil), tj.Dims...)
	default:
		return nil, 0, fmt.Errorf("input dims %v do not match item shape %v (with optional leading batch axis)", tj.Dims, item)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if len(tj.Data) != n {
		return nil, 0, fmt.Errorf("input carries %d values, dims %v need %d", len(tj.Data), tj.Dims, n)
	}
	return tensor.FromSlice(tj.Data, dims...), dims[0], nil
}

func (s *Server) handleSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SpecResponse{
		Program:  s.cfg.Curve.Program,
		ItemDims: s.cfg.ItemDims,
		SLOMs:    s.cfg.SLO.Seconds() * 1e3,
		MaxBatch: s.cfg.MaxBatch,
		MaxQueue: s.cfg.MaxQueue,
		Policy:   s.cfg.Policy.String(),
		Points:   s.cfg.Curve.Len(),
	})
}

// handleCurve installs a freshly calibrated tradeoff curve — the online
// answer to a latched drift alarm: recalibrate offline, POST the new
// curve, and the tuner resumes with reset health state and a released
// recalibration latch, without dropping a request.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	curve, err := pareto.UnmarshalCurve(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad curve: %v", err))
		return
	}
	for i, pt := range curve.Points {
		if err := s.cfg.Graph.ValidateConfig(pt.Config); err != nil {
			httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf("curve point %d: %v", i, err))
			return
		}
	}
	if err := s.tuner.SwapCurve(curve); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	gRecalNeeded.Set(0)
	// A fresh curve releases the latch, so re-arm the one-shot automatic
	// flight dumps for the next drift episode.
	s.driftLatched.Store(false)
	s.healthDumped.Store(false)
	writeJSON(w, http.StatusOK, map[string]any{"swapped": true, "points": curve.Len()})
}

// healthzBody is the GET /healthz reply.
type healthzBody struct {
	Status              string              `json:"status"`
	Draining            bool                `json:"draining"`
	RecalibrationNeeded bool                `json:"recalibration_needed"`
	Drifting            []core.ConfigHealth `json:"drifting,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := s.tuner.Health()
	body := healthzBody{Status: "ok", Draining: draining, RecalibrationNeeded: h.RecalibrationNeeded}
	code := http.StatusOK
	switch {
	case draining:
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	case h.RecalibrationNeeded:
		body.Status = "recalibration_needed"
		body.Drifting = h.Drifting()
		code = http.StatusServiceUnavailable
	}
	if h.RecalibrationNeeded {
		gRecalNeeded.Set(1)
	} else {
		gRecalNeeded.Set(0)
	}
	// First transition into an unhealthy probe (drift, not drain): leave
	// a flight dump behind while the evidence is still in the ring.
	if code == http.StatusServiceUnavailable && !draining && s.healthDumped.CompareAndSwap(false, true) {
		obs.Flight().Event("serve.healthz_503", body.Status, obs.TraceID{})
		s.dumpFlight()
	}
	writeJSON(w, code, body)
}

// dumpFlight writes one flight-recorder dump to the configured
// FlightLog, serialized against concurrent automatic dumps from other
// goroutines. No-op without a FlightLog.
func (s *Server) dumpFlight() {
	if s.cfg.FlightLog == nil {
		return
	}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	_ = obs.Flight().Dump(s.cfg.FlightLog)
}

// StatzBody is the GET /statz reply: queue, counters, the active
// operating point, tuner health and the recent switch history.
type StatzBody struct {
	Program    string  `json:"program"`
	Policy     string  `json:"policy"`
	SLOMs      float64 `json:"slo_ms"`
	ExecBudget float64 `json:"exec_budget_ms"`
	Window     int     `json:"window"`
	MaxBatch   int     `json:"max_batch"`

	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Draining   bool `json:"draining"`

	Requests  int64 `json:"requests"`
	Served    int64 `json:"served"`
	Rejected  int64 `json:"rejected"`
	Expired   int64 `json:"expired"`
	Failed    int64 `json:"failed"`
	SLOMisses int64 `json:"slo_misses"`
	Batches   int64 `json:"batches"`
	// LingerWaits counts the batches that waited for a request known to be
	// arriving, LingerExpired those of them the Linger bound cut short.
	LingerWaits   int64 `json:"linger_waits"`
	LingerExpired int64 `json:"linger_expired"`

	CurrentIndex  int     `json:"current_index"`
	CurrentPerf   float64 `json:"current_perf"`
	CurrentQoS    float64 `json:"current_qos"`
	CurrentConfig string  `json:"current_config"`

	Switches    int                `json:"switches"`
	CurveSwaps  int                `json:"curve_swaps"`
	SwitchTrace []core.SwitchEvent `json:"switch_trace"`
	Health      core.RuntimeHealth `json:"health"`

	// Sampler is the tail-sampler state (nil when tracing is disabled).
	Sampler *SamplerStats `json:"sampler,omitempty"`
}

// SamplerStats summarizes the tail sampler for /statz.
type SamplerStats struct {
	Seen    int64 `json:"seen"`    // finished traces decided
	Kept    int64 `json:"kept"`    // traces retained
	Evicted int64 `json:"evicted"` // undecided traces evicted under memory pressure
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the serving state (the /statz body).
func (s *Server) Stats() StatzBody {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	pt, idx := s.tuner.Acquire()
	trace := s.tuner.SwitchTrace()
	if len(trace) > 32 {
		trace = trace[len(trace)-32:]
	}
	var samp *SamplerStats
	if s.cfg.Sampler != nil {
		seen, kept, evicted := s.cfg.Sampler.Stats()
		samp = &SamplerStats{Seen: seen, Kept: kept, Evicted: evicted}
	}
	return StatzBody{
		Program:       s.cfg.Curve.Program,
		Policy:        s.cfg.Policy.String(),
		SLOMs:         s.cfg.SLO.Seconds() * 1e3,
		ExecBudget:    s.cfg.ExecBudget.Seconds() * 1e3,
		Window:        s.cfg.Window,
		MaxBatch:      s.cfg.MaxBatch,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.MaxQueue,
		Draining:      draining,
		Requests:      s.stats.requests.Load(),
		Served:        s.stats.served.Load(),
		Rejected:      s.stats.rejected.Load(),
		Expired:       s.stats.expired.Load(),
		Failed:        s.stats.failed.Load(),
		SLOMisses:     s.stats.sloMisses.Load(),
		Batches:       s.stats.batches.Load(),
		LingerWaits:   s.stats.lingerWaits.Load(),
		LingerExpired: s.stats.lingerExpired.Load(),
		CurrentIndex:  idx,
		CurrentPerf:   pt.Perf,
		CurrentQoS:    pt.QoS,
		CurrentConfig: configLabel(pt.Config),
		Switches:      s.tuner.Switches(),
		CurveSwaps:    s.tuner.CurveSwaps(),
		SwitchTrace:   trace,
		Health:        s.tuner.Health(),
		Sampler:       samp,
	}
}

func configLabel(cfg approx.Config) string {
	return cfg.FormatGroupCounts()
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
