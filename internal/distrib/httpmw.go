package distrib

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// statusRecorder captures the status code a handler writes so the
// middleware can account responses by status class. Handlers that never
// call WriteHeader implicitly answer 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// statusClass renders a status code as its Prometheus-style class label
// ("2xx", "4xx", ...).
func statusClass(code int) string { return fmt.Sprintf("%dxx", code/100) }

// httpStats is the coordinator-local mirror of the HTTP middleware
// telemetry. The global obs metrics aggregate across every coordinator
// in the process (useful for scraping); this mirror is scoped to one
// coordinator instance so GET /v1/stats describes exactly one fleet run.
type httpStats struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

type endpointStats struct {
	requests int64
	byClass  map[string]int64
	lat      *obs.QHistogram
}

func (s *httpStats) endpoint(path string) *endpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.endpoints == nil {
		s.endpoints = make(map[string]*endpointStats)
	}
	ep := s.endpoints[path]
	if ep == nil {
		ep = &endpointStats{byClass: make(map[string]int64), lat: obs.NewQHist()}
		s.endpoints[path] = ep
	}
	return ep
}

func (s *httpStats) record(ep *endpointStats, seconds float64, status int) {
	ep.lat.Observe(seconds)
	s.mu.Lock()
	ep.requests++
	ep.byClass[statusClass(status)]++
	s.mu.Unlock()
}

// snapshot renders the per-endpoint stats in wire form, with paths
// sorted for deterministic iteration by callers that range in order.
func (s *httpStats) snapshot() map[string]EndpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]EndpointStats, len(s.endpoints))
	paths := make([]string, 0, len(s.endpoints))
	for p := range s.endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		ep := s.endpoints[p]
		classes := make(map[string]int64, len(ep.byClass))
		for k, v := range ep.byClass {
			classes[k] = v
		}
		out[p] = EndpointStats{
			Requests: ep.requests,
			ByClass:  classes,
			Latency:  ep.lat.Snapshot().Summary(),
		}
	}
	return out
}

// instrument wraps one coordinator endpoint with the telemetry
// middleware: a per-endpoint latency quantile histogram, an in-flight
// gauge, and status-class response counters — each mirrored into both
// the process-wide obs registry (for /metrics scrapes) and the
// coordinator-local stats (for /v1/stats).
func (c *Coordinator) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := mHTTPLatency.With(path)
	inflight := gHTTPInflight.With(path)
	local := c.stats.endpoint(path)
	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		var sp *obs.Span // stays the no-op span for untraced requests
		if sc := obs.Extract(r.Header); sc.Valid() {
			sp = c.tracer.StartRemote(sc, "coord:"+path)
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		seconds := time.Since(start).Seconds()
		inflight.Add(-1)
		lat.Observe(seconds)
		mHTTPResponses.With(path + " " + statusClass(rec.status)).Inc()
		c.stats.record(local, seconds, rec.status)
		sp.With("status", rec.status).End()
	}
}

// maxCoordSpans bounds the coordinator-side trace ring; once full the
// oldest record is overwritten, so a long-lived coordinator keeps the
// most recent fleet activity.
const maxCoordSpans = 512

// Fleet-telemetry wire types.

// edgeTelemetryReq is the best-effort end-of-run upload each edge sends
// to POST /v1/telemetry: client-side request/retry/timeout counts and
// the full (mergeable) latency snapshot.
type edgeTelemetryReq struct {
	EdgeID   int            `json:"edge_id"`
	Requests int64          `json:"requests"`
	Retries  int64          `json:"retries"`
	Timeouts int64          `json:"timeouts"`
	Latency  *obs.QSnapshot `json:"latency,omitempty"`
	// Spans are the run's completed client-side span records (bounded at
	// the edge), keyed into FleetStats.Traces by trace ID.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// EdgeStats is one edge's client-side view in the fleet stats.
type EdgeStats struct {
	Requests int64        `json:"requests"`
	Retries  int64        `json:"retries"`
	Timeouts int64        `json:"timeouts"`
	Latency  obs.QSummary `json:"latency"`
}

// EndpointStats is the coordinator-side view of one protocol endpoint.
type EndpointStats struct {
	Requests int64            `json:"requests"`
	ByClass  map[string]int64 `json:"by_class"`
	Latency  obs.QSummary     `json:"latency"`
}

// FleetStats is the GET /v1/stats response: per-edge client telemetry
// with fleet-wide totals (edge latency snapshots merged exactly, not
// approximated from summaries), plus per-endpoint server-side stats.
type FleetStats struct {
	Edges         map[string]EdgeStats     `json:"edges"`
	TotalRequests int64                    `json:"total_requests"`
	TotalRetries  int64                    `json:"total_retries"`
	TotalTimeouts int64                    `json:"total_timeouts"`
	EdgeLatency   obs.QSummary             `json:"edge_latency"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Traces assembles the cross-process traces the coordinator knows
	// about — client-side spans uploaded with edge telemetry merged with
	// the coordinator's own server-side records — keyed by trace ID and
	// sorted by start offset within each trace.
	Traces map[string][]obs.SpanRecord `json:"traces,omitempty"`
}

// handleTelemetry stores one edge's end-of-run client telemetry (last
// write per edge wins, so a restarted edge reports its final state).
func (c *Coordinator) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	var req edgeTelemetryReq
	if !decode(w, r, &req) {
		return
	}
	if req.EdgeID < 0 || req.EdgeID >= c.opts.NEdge {
		http.Error(w, fmt.Sprintf("edge id %d out of range [0,%d)", req.EdgeID, c.opts.NEdge), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.touchLocked(req.EdgeID)
	c.edgeTel[req.EdgeID] = req
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleStats serves the aggregated fleet telemetry.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	tel := make([]edgeTelemetryReq, 0, len(c.edgeTel))
	for _, t := range c.edgeTel {
		tel = append(tel, t)
	}
	c.mu.Unlock()
	sort.Slice(tel, func(i, j int) bool { return tel[i].EdgeID < tel[j].EdgeID })

	fs := FleetStats{
		Edges:     make(map[string]EdgeStats, len(tel)),
		Endpoints: c.stats.snapshot(),
	}
	merged := obs.NewQHist().Snapshot()
	for _, t := range tel {
		es := EdgeStats{Requests: t.Requests, Retries: t.Retries, Timeouts: t.Timeouts}
		if t.Latency != nil {
			es.Latency = t.Latency.Summary()
			merged.Merge(t.Latency)
		}
		fs.Edges[fmt.Sprintf("%d", t.EdgeID)] = es
		fs.TotalRequests += t.Requests
		fs.TotalRetries += t.Retries
		fs.TotalTimeouts += t.Timeouts
	}
	fs.EdgeLatency = merged.Summary()
	fs.Traces = c.assembleTraces(tel)
	writeJSON(w, fs)
}

// assembleTraces merges the coordinator's server-side span records with
// the client-side spans each edge uploaded, grouped by trace ID. Spans
// within a trace are sorted by start offset (client and server clocks
// have different bases, so ordering is per-process best-effort; span
// parentage carries the authoritative structure).
func (c *Coordinator) assembleTraces(tel []edgeTelemetryReq) map[string][]obs.SpanRecord {
	traces := make(map[string][]obs.SpanRecord)
	for _, rec := range c.tracer.Records() {
		tid := rec.TraceID.String()
		traces[tid] = append(traces[tid], rec)
	}
	for _, t := range tel {
		for _, rec := range t.Spans {
			if rec.TraceID.IsZero() {
				continue
			}
			tid := rec.TraceID.String()
			traces[tid] = append(traces[tid], rec)
		}
	}
	for _, spans := range traces {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
	if len(traces) == 0 {
		return nil
	}
	return traces
}
