package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// This file is the repository's one HTTP scaffold: the listener every
// server binds through (Listen), the middleware every route is counted by
// (Route), the JSON reply, error body and bounded read every handler
// answers and reads with, and the JSON fetch their clients use. serve,
// distrib's coordinator and the metrics endpoint below all use it.

// Server is one bound HTTP listener with the header-read bound every
// server in the repository shares.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Listen binds addr (e.g. ":8090" or "127.0.0.1:0") and serves h in a
// background goroutine until Shutdown or Close. Header reads are bounded
// so that a slowloris peer cannot pin accept slots.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Shutdown stops accepting and waits for in-flight handlers, or for ctx.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close stops the server, closing open connections.
func (s *Server) Close() error { return s.srv.Close() }

// Every route's traffic, keyed by its mux pattern (e.g. "POST /v1/infer");
// responses are keyed by pattern and status class ("POST /v1/infer 2xx").
var (
	httpSeconds   = NewQHistVec("http.server_seconds")
	httpResponses = NewCounterVec("http.responses")
	httpInFlight  = NewGaugeVec("http.in_flight")
)

// Route wraps the handler registered under a mux pattern with the three
// per-route families: latency, responses by status class, and requests in
// flight. The label children are resolved here, once per route (a status
// class on its first response), so a request pays no lookup. All three
// settle in a defer: a handler that panics — net/http recovers it and keeps
// serving — is counted as a 5xx and leaves nothing in flight.
func Route(pattern string, h http.Handler) http.Handler {
	lat := httpSeconds.With(pattern)
	inFlight := httpInFlight.With(pattern)
	var byClass [6]atomic.Pointer[Counter] // index: status/100
	responses := func(status int) *Counter {
		class := min(max(status/100, 1), 5)
		c := byClass[class].Load()
		if c == nil {
			c = httpResponses.With(fmt.Sprintf("%s %dxx", pattern, class))
			byClass[class].Store(c)
		}
		return c
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		returned := false
		defer func() {
			lat.Observe(time.Since(start).Seconds())
			if !returned {
				sw.status = http.StatusInternalServerError
			}
			responses(sw.status).Inc()
			inFlight.Add(-1)
		}()
		h.ServeHTTP(sw, r)
		returned = true
	})
}

// statusWriter remembers the status a handler answered with; one that
// never calls WriteHeader answers 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ReplyJSON answers with status code and v as a JSON body.
func ReplyJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ReplyError answers with status code and the body {"error": msg}.
func ReplyError(w http.ResponseWriter, code int, msg string) {
	ReplyJSON(w, code, map[string]string{"error": msg})
}

// GetJSON fetches url and decodes its 200 answer into v.
func GetJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// MaxBodyBytes bounds every request body a handler reads.
const MaxBodyBytes = 64 << 20

// ReadBody reads a request body of at most MaxBodyBytes. On failure it
// has answered 413 for a body over the bound, 400 for any other read
// error, and returns false.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		ReplyError(w, readStatus(err), err.Error())
		return nil, false
	}
	return body, true
}

// readStatus is the status that answers a failed body read: 413 Content
// Too Large for a body over its bound, 400 for any other error.
func readStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ReadJSON reads a request body (ReadBody) and decodes it into v. On
// failure it has answered as ReadBody does, or 400 for a body that does
// not decode, and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		ReplyError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// MetricsHandler serves the registry at a /metrics-style endpoint in the
// OpenMetrics 1.0 exposition (WriteOpenMetrics), whatever the query or
// Accept header: it is the format Prometheus asks for first, and the only
// one whose grammar carries exemplars. reg nil means the Default registry.
func MetricsHandler(reg *Registry) http.Handler {
	if reg == nil {
		reg = Default
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = reg.WriteOpenMetrics(w)
	})
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

// ServeMetrics binds addr and serves the opt-in live observability
// endpoint in a background goroutine: the OpenMetrics exposition at
// /metrics (MetricsHandler), a liveness probe at /healthz, a span-tree
// summary at /trace, the flight recorder at /debug/flight and the
// standard net/http/pprof handlers at /debug/pprof/ for live profiling of
// long tuning runs. reg nil means the Default registry; tr nil serves the
// currently installed tracer at /trace.
func ServeMetrics(addr string, reg *Registry, tr *Tracer) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "approxtuner observability endpoint\n\n/metrics      metrics in OpenMetrics 1.0, exemplars on histogram buckets\n/healthz      liveness probe\n/trace        span tree of the active tracer\n/debug/flight flight-recorder dump (JSONL, most recent spans + events)\n/debug/pprof  live profiling\n")
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
			ReplyError(w, http.StatusNotFound, "no tracer installed")
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
	return Listen(addr, mux)
}
