package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Server is the opt-in live observability endpoint: metric exposition at
// /metrics (expvar-style JSON or Prometheus text, content-negotiated), a
// liveness probe at /healthz, a span-tree summary at /trace, and the
// standard net/http/pprof profiling handlers at /debug/pprof/ for live
// profiling of long tuning runs.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// metricsFormat is the negotiated /metrics exposition.
type metricsFormat int

const (
	fmtJSON        metricsFormat = iota // expvar-style indented JSON snapshot
	fmtProm                             // classic text 0.0.4, no exemplars
	fmtOpenMetrics                      // OpenMetrics 1.0, exemplars on buckets
)

// MetricsHandler serves the registry at a /metrics-style endpoint with
// content negotiation: `?format=openmetrics` (or an Accept header
// naming application/openmetrics-text, which modern Prometheus
// scrapers prefer) selects the OpenMetrics exposition — the only
// format whose grammar has exemplars; `?format=prom` (or an Accept
// naming text/plain) selects the classic 0.0.4 text exposition, which
// never carries exemplars; `?format=json` or an Accept header naming
// application/json — and any request expressing no preference —
// selects the expvar-style indented JSON snapshot, which keeps
// existing `curl :8090/metrics` consumers byte-compatible.
func MetricsHandler(reg *Registry) http.Handler {
	if reg == nil {
		reg = Default
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch negotiateMetrics(r) {
		case fmtOpenMetrics:
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = reg.WriteOpenMetrics(w)
		case fmtProm:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(reg.Snapshot())
		}
	})
}

// negotiateMetrics applies the /metrics content negotiation: the
// explicit format query parameter wins; otherwise the Accept header
// decides (OpenMetrics outranking classic text, as a scraper offering
// both prefers it), with JSON as the no-preference default.
func negotiateMetrics(r *http.Request) metricsFormat {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return fmtProm
	case "openmetrics":
		return fmtOpenMetrics
	case "json":
		return fmtJSON
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/openmetrics-text"):
		return fmtOpenMetrics
	case strings.Contains(accept, "application/json"):
		return fmtJSON
	case strings.Contains(accept, "text/plain"):
		return fmtProm
	}
	return fmtJSON
}

// HealthzHandler answers liveness probes with 200 "ok". It reports the
// process-level signal only; richer health (e.g. runtime drift) lives in
// the metrics the same endpoint serves.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ServeMetrics binds addr (e.g. ":8090" or ":0") and serves the registry
// and tracer in a background goroutine. reg nil means the Default
// registry; tr nil serves the currently installed tracer at /trace.
func ServeMetrics(addr string, reg *Registry, tr *Tracer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "approxtuner observability endpoint\n\n/metrics      metric snapshot (JSON; ?format=prom for classic text, ?format=openmetrics for OpenMetrics with exemplars; Accept negotiated)\n/healthz      liveness probe\n/trace        span tree of the active tracer\n/debug/flight flight-recorder dump (JSONL, most recent spans + events)\n/debug/pprof  live profiling\n")
	})
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/healthz", HealthzHandler())
	mux.Handle("/debug/flight", Flight().Handler())
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := tr
		if t == nil {
			t = Active()
		}
		if t == nil {
			http.Error(w, "no tracer installed", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, Summarize(t.Records()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
