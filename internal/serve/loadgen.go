package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// LoadConfig drives a load-generation run against a serving endpoint.
type LoadConfig struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8080". Required.
	URL string
	// OpenLoop selects the arrival model: false (closed loop) keeps
	// Concurrency workers each waiting for their previous response —
	// throughput adapts to the server; true (open loop) fires requests
	// at Poisson arrivals of rate RPS regardless of completions — the
	// arrival process does not slow down when the server does, which is
	// what exposes queue buildup and backpressure.
	OpenLoop bool
	// Concurrency is the closed-loop worker count (default 4).
	Concurrency int
	// RPS is the open-loop Poisson arrival rate (default 100).
	RPS float64
	// Requests is the total request budget (default 100).
	Requests int
	// ItemsPerRequest sizes each request's batch axis (default 1).
	ItemsPerRequest int
	// Seed drives input synthesis and the arrival process. Two runs
	// with the same seed issue identical request sequences.
	Seed int64
	// SLO is the attainment threshold; zero fetches the server's own
	// SLO from /v1/spec.
	SLO time.Duration
	// Timeout bounds each HTTP call (default 30s).
	Timeout time.Duration
	// SlowestK is how many of the slowest OK requests to report trace
	// IDs for (default 3). Trace IDs come from the traceparent response
	// header, so the report links directly into /debug/flight; requests
	// answered without a traceparent header (tracing disabled) are
	// skipped.
	SlowestK int
}

func (lc LoadConfig) withDefaults() LoadConfig {
	if lc.Concurrency <= 0 {
		lc.Concurrency = 4
	}
	if lc.RPS <= 0 {
		lc.RPS = 100
	}
	if lc.Requests <= 0 {
		lc.Requests = 100
	}
	if lc.ItemsPerRequest <= 0 {
		lc.ItemsPerRequest = 1
	}
	if lc.Timeout <= 0 {
		lc.Timeout = 30 * time.Second
	}
	if lc.SlowestK <= 0 {
		lc.SlowestK = 3
	}
	return lc
}

// TraceRef points a report line at one traced request: the trace ID the
// server answered with (traceparent response header), the HTTP status,
// and the client-observed latency.
type TraceRef struct {
	TraceID   string  `json:"trace_id"`
	Status    int     `json:"status"`
	LatencyMs float64 `json:"latency_ms"`
}

// LoadReport summarizes a load-generation run.
type LoadReport struct {
	Mode     string `json:"mode"`
	Sent     int    `json:"sent"`
	OK       int    `json:"ok"`
	Rejected int    `json:"rejected"` // 429/503 backpressure answers
	Expired  int    `json:"expired"`  // 504 deadline expiries
	Failed   int    `json:"failed"`   // transport errors and 5xx

	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// SLOAttainment is the fraction of accepted (OK) requests answered
	// within the SLO; SLOMs echoes the threshold used.
	SLOAttainment float64 `json:"slo_attainment"`
	SLOMs         float64 `json:"slo_ms"`

	// ConfigSwitches/Batches/CurveSwaps snapshot the server's control
	// loop after the run (from /statz), so a report shows how hard the
	// tuner worked to deliver the attainment above.
	ConfigSwitches int   `json:"config_switches"`
	CurveSwaps     int   `json:"curve_swaps"`
	Batches        int64 `json:"batches"`

	// SlowestTraces are the SlowestK slowest OK requests that carried a
	// traceparent response header, slowest first; FailedTraces are all
	// non-OK responses that carried one. Both let an operator jump from
	// the loadgen summary straight to /debug/flight.
	SlowestTraces []TraceRef `json:"slowest_traces,omitempty"`
	FailedTraces  []TraceRef `json:"failed_traces,omitempty"`
}

// String renders the report for terminal output.
func (r *LoadReport) String() string {
	s := fmt.Sprintf(
		"%s loop: %d sent, %d ok, %d rejected, %d expired, %d failed in %.2fs (%.1f req/s)\n"+
			"latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n"+
			"SLO %.1fms attainment: %.1f%% of accepted; server: %d switches, %d curve swaps, %d batches",
		r.Mode, r.Sent, r.OK, r.Rejected, r.Expired, r.Failed, r.DurationSec, r.ThroughputRPS,
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs,
		r.SLOMs, 100*r.SLOAttainment, r.ConfigSwitches, r.CurveSwaps, r.Batches)
	for _, tr := range r.SlowestTraces {
		s += fmt.Sprintf("\nslow  trace %s: %.2fms (HTTP %d)", tr.TraceID, tr.LatencyMs, tr.Status)
	}
	for _, tr := range r.FailedTraces {
		s += fmt.Sprintf("\nfailed trace %s: HTTP %d after %.2fms", tr.TraceID, tr.Status, tr.LatencyMs)
	}
	return s
}

// RunLoad executes a load-generation run. It fetches /v1/spec for the
// input shape (and the SLO unless overridden), synthesizes seeded
// inputs, fires Requests requests under the configured arrival model,
// and reports latency quantiles and SLO attainment.
func RunLoad(ctx context.Context, lc LoadConfig) (*LoadReport, error) {
	lc = lc.withDefaults()
	if lc.URL == "" {
		return nil, fmt.Errorf("loadgen: missing server URL")
	}
	client := &http.Client{Timeout: lc.Timeout}
	var spec SpecResponse
	if err := obs.GetJSON(ctx, client, lc.URL+"/v1/spec", &spec); err != nil {
		return nil, fmt.Errorf("loadgen: spec fetch: %w", err)
	}
	slo := lc.SLO
	if slo <= 0 {
		slo = time.Duration(spec.SLOMs * float64(time.Millisecond))
	}

	// Pre-synthesize a small pool of request bodies: deterministic from
	// the seed, cycled by request index so the server sees varied but
	// reproducible inputs.
	rng := tensor.NewRNG(lc.Seed)
	bodies := make([][]byte, 8)
	for i := range bodies {
		dims := append([]int{lc.ItemsPerRequest}, spec.ItemDims...)
		t := tensor.New(dims...)
		rng.FillNormal(t, 0, 1)
		b, err := json.Marshal(InferRequest{Input: TensorJSON{Dims: dims, Data: t.Data()}})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	rep := &LoadReport{Mode: "closed", SLOMs: slo.Seconds() * 1e3}
	var (
		mu        sync.Mutex
		latencies []float64 // milliseconds, OK requests only
		withinSLO int
		okTraces  []TraceRef // OK responses that carried a traceparent header
	)
	record := func(status int, d time.Duration, tid string, err error) {
		mu.Lock()
		defer mu.Unlock()
		rep.Sent++
		ref := TraceRef{TraceID: tid, Status: status, LatencyMs: d.Seconds() * 1e3}
		switch {
		case err != nil:
			rep.Failed++
		case status == http.StatusOK:
			rep.OK++
			latencies = append(latencies, d.Seconds()*1e3)
			if d <= slo {
				withinSLO++
			}
			if tid != "" {
				okTraces = append(okTraces, ref)
			}
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			rep.Rejected++
			if tid != "" {
				rep.FailedTraces = append(rep.FailedTraces, ref)
			}
		case status == http.StatusGatewayTimeout:
			rep.Expired++
			if tid != "" {
				rep.FailedTraces = append(rep.FailedTraces, ref)
			}
		default:
			rep.Failed++
			if tid != "" {
				rep.FailedTraces = append(rep.FailedTraces, ref)
			}
		}
	}
	fire := func(i int) {
		status, d, tid, err := postInfer(ctx, client, lc.URL, bodies[i%len(bodies)])
		record(status, d, tid, err)
	}

	start := time.Now()
	if lc.OpenLoop {
		rep.Mode = "open"
		// Poisson arrivals: exponential inter-arrival gaps at rate RPS,
		// each request fired asynchronously so a slow server cannot
		// throttle the arrival process.
		var wg sync.WaitGroup
		arrival := tensor.NewRNG(lc.Seed + 1)
	openLoop:
		for i := 0; i < lc.Requests; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fire(i)
			}(i)
			gap := -math.Log(1-arrival.Float64()) / lc.RPS
			select {
			case <-time.After(time.Duration(gap * float64(time.Second))):
			case <-ctx.Done():
				break openLoop
			}
		}
		wg.Wait()
	} else {
		var wg sync.WaitGroup
		next := make(chan int, lc.Requests)
		for i := 0; i < lc.Requests; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < lc.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						return
					}
					fire(i)
				}
			}()
		}
		wg.Wait()
	}
	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.Sent) / rep.DurationSec
	}

	sort.Float64s(latencies)
	rep.P50Ms = quantileMs(latencies, 0.50)
	rep.P95Ms = quantileMs(latencies, 0.95)
	rep.P99Ms = quantileMs(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.MaxMs = latencies[n-1]
		rep.SLOAttainment = float64(withinSLO) / float64(n)
	}
	// Slowest-first among traced OK requests; non-OK traces stay in
	// arrival order (they are usually few and each one matters).
	sort.SliceStable(okTraces, func(i, j int) bool { return okTraces[i].LatencyMs > okTraces[j].LatencyMs })
	if len(okTraces) > lc.SlowestK {
		okTraces = okTraces[:lc.SlowestK]
	}
	rep.SlowestTraces = okTraces
	var st StatzBody
	if obs.GetJSON(ctx, client, lc.URL+"/statz", &st) == nil {
		rep.ConfigSwitches = st.Switches
		rep.CurveSwaps = st.CurveSwaps
		rep.Batches = st.Batches
	}
	return rep, nil
}

// TraceIDs collects the distinct trace IDs a report refers to, slowest
// OK traces first, then failures.
func (r *LoadReport) TraceIDs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, refs := range [][]TraceRef{r.SlowestTraces, r.FailedTraces} {
		for _, ref := range refs {
			if ref.TraceID != "" && !seen[ref.TraceID] {
				seen[ref.TraceID] = true
				out = append(out, ref.TraceID)
			}
		}
	}
	return out
}

// VerifyFlight fetches the server's /debug/flight dump and asserts that
// (a) an event named wantEvent is present, and (b) when tids is
// non-empty, at least one span entry belongs to one of those traces.
// It is the assertion half of `make trace-smoke`: loadgen injects load,
// the server latches drift and dumps, and this proves the dump actually
// links back to a request the client saw.
func VerifyFlight(ctx context.Context, client *http.Client, base, wantEvent string, tids []string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/flight", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: flight fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: flight fetch: HTTP %d", resp.StatusCode)
	}
	want := make(map[string]bool, len(tids))
	for _, t := range tids {
		want[t] = true
	}
	var (
		haveEvent bool
		haveTrace bool
		entries   int
	)
	dec := json.NewDecoder(resp.Body)
	for {
		var e obs.FlightEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("loadgen: flight dump parse: %w", err)
		}
		entries++
		if e.Kind == "event" && e.Name == wantEvent {
			haveEvent = true
		}
		if e.Kind == "span" && want[e.TraceID.String()] {
			haveTrace = true
		}
	}
	if !haveEvent {
		return fmt.Errorf("loadgen: flight dump (%d entries) missing event %q", entries, wantEvent)
	}
	if len(tids) > 0 && !haveTrace {
		return fmt.Errorf("loadgen: flight dump (%d entries) has no span from traces %v", entries, tids)
	}
	return nil
}

func quantileMs(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// postInfer fires one inference request and returns the status, the
// client-observed latency, and the trace ID from the traceparent
// response header ("" when the server answered without one).
func postInfer(ctx context.Context, client *http.Client, base string, body []byte) (int, time.Duration, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	d := time.Since(start)
	if err != nil {
		return 0, d, "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := ""
	if sc := obs.Extract(resp.Header); sc.Valid() {
		tid = sc.TraceID.String()
	}
	return resp.StatusCode, d, tid, nil
}
