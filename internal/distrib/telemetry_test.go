package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/predictor"
)

// telemetryLineRe matches one valid OpenMetrics line (the subset the obs
// writer emits, exemplar suffixes and the # EOF terminator included).
var telemetryLineRe = regexp.MustCompile(`^(# EOF|# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
	`(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)( # \{trace_id="[0-9a-f]{32}"\} \S+)?)$`)

// TestFleetTelemetryAggregation pins the fleet-telemetry acceptance
// criterion: a loopback fleet behind a lossy transport converges, every
// edge's end-of-run client telemetry (requests, retries, latency) lands
// in GET /v1/stats with correct totals, and the coordinator's own
// /metrics endpoint counts every protocol route (obs.Route) and serves
// valid OpenMetrics.
func TestFleetTelemetryAggregation(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	const nEdge = 3
	opts := core.InstallOptions{
		Options: core.Options{
			QoSMin: base - 10, NCalibrate: 5, MaxIters: 150, StallLimit: 80,
			MaxConfigs: 12, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3,
			Model: predictor.Pi2,
		},
		Device:    device.NewTX2GPU(),
		Objective: core.MinimizeEnergy,
		NEdge:     nEdge,
	}
	coord, err := NewCoordinator(gp, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, nEdge)
	for i := 0; i < nEdge; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eo := opts
			eo.RetryBase = time.Millisecond
			e := NewEdge(i, srv.URL, gp, device.NewTX2GPU(), eo)
			// A lossy link forces client retries so the retry fields in
			// /v1/stats are exercised, not just present. Per-edge seeds
			// decorrelate the three fault schedules.
			e.Transport = NewFaultyTransport(FaultPlan{Seed: int64(100 + i), DropProb: 0.3}, nil)
			_, errs[i] = e.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}

	cl := srv.Client()
	get := func(path string) []byte {
		t.Helper()
		resp, err := cl.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var fs FleetStats
	if err := json.Unmarshal(get("/v1/stats"), &fs); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	if len(fs.Edges) != nEdge {
		t.Fatalf("/v1/stats has %d edges, want %d: %+v", len(fs.Edges), nEdge, fs.Edges)
	}
	var wantReq, wantRetry, wantTimeout, wantLat int64
	for id, e := range fs.Edges {
		if e.Requests <= 0 {
			t.Errorf("edge %s reported %d requests", id, e.Requests)
		}
		if e.Latency.Count != e.Requests {
			t.Errorf("edge %s latency count %d != requests %d", id, e.Latency.Count, e.Requests)
		}
		if e.Latency.P50 <= 0 || e.Latency.Max < e.Latency.P99 {
			t.Errorf("edge %s implausible latency summary: %+v", id, e.Latency)
		}
		wantReq += e.Requests
		wantRetry += e.Retries
		wantTimeout += e.Timeouts
		wantLat += e.Latency.Count
	}
	if fs.TotalRequests != wantReq || fs.TotalRetries != wantRetry || fs.TotalTimeouts != wantTimeout {
		t.Errorf("totals %d/%d/%d do not match per-edge sums %d/%d/%d",
			fs.TotalRequests, fs.TotalRetries, fs.TotalTimeouts, wantReq, wantRetry, wantTimeout)
	}
	if fs.TotalRetries < 1 {
		t.Error("lossy transport produced no retries; fault injection is not reaching the client")
	}
	if fs.EdgeLatency.Count != wantLat {
		t.Errorf("merged fleet latency count %d != per-edge sum %d", fs.EdgeLatency.Count, wantLat)
	}
	// The process-wide route families may hold other tests' requests too,
	// so each route is checked for consistency, not for this run's counts.
	// They are read by name: a renamed family reads empty and fails.
	seconds := obs.Default.QHistVec("http.server_seconds")
	responses := obs.Default.CounterVec("http.responses")
	inFlight := obs.Default.GaugeVec("http.in_flight")
	for _, pattern := range []string{"POST /v1/register", "POST /v1/profiles", "GET /v1/curve", "POST /v1/telemetry"} {
		var answered int64
		for class := 1; class <= 5; class++ {
			answered += responses.With(fmt.Sprintf("%s %dxx", pattern, class)).Value()
		}
		if n := seconds.With(pattern).Count(); n <= 0 || n != answered {
			t.Errorf("route %s: latency count %d, responses %d", pattern, n, answered)
		}
		if responses.With(pattern+" 2xx").Value() <= 0 {
			t.Errorf("route %s has no 2xx responses", pattern)
		}
		if f := inFlight.With(pattern).Value(); f != 0 {
			t.Errorf("route %s: %v requests in flight after the run", pattern, f)
		}
	}

	// The coordinator serves the process registry at /metrics in
	// OpenMetrics, and a liveness probe at /healthz.
	metrics := string(get("/metrics"))
	if !strings.HasSuffix(metrics, "\n# EOF\n") {
		t.Error("coordinator /metrics does not end in # EOF")
	}
	for _, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if !telemetryLineRe.MatchString(line) {
			t.Errorf("invalid openmetrics line from coordinator /metrics: %q", line)
		}
	}
	for _, want := range []string{
		`http_server_seconds_count{key="POST /v1/profiles"}`, `http_responses_total{key="GET /v1/curve 2xx"}`, "distrib_client_retries_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator /metrics missing %s", want)
		}
	}
	if body := strings.TrimSpace(string(get("/healthz"))); body != "ok" {
		t.Errorf("/healthz = %q, want ok", body)
	}
}

// TestTelemetryRejectsBadEdgeID pins validation on the telemetry upload.
func TestTelemetryRejectsBadEdgeID(t *testing.T) {
	srv := telemetryCoordinator(t)
	resp, err := srv.Client().Post(srv.URL+"/v1/telemetry", "application/json",
		strings.NewReader(`{"edge_id":7,"requests":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range telemetry edge id: status %d, want 400", resp.StatusCode)
	}
}

// telemetryCoordinator is a coordinator nothing tunes on, behind a
// loopback server: enough to exercise the telemetry endpoints.
func telemetryCoordinator(t *testing.T) *httptest.Server {
	t.Helper()
	gp, base := buildProgram(t)
	coord, err := NewCoordinator(gp, devProfiles(t, gp), core.InstallOptions{
		Options: core.Options{QoSMin: base - 10},
		Device:  device.NewTX2GPU(),
		NEdge:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestTelemetryRejectsInconsistentSnapshot pins validation of the latency
// snapshot an edge uploads: negative buckets, or a count its buckets do not
// add up to, would be merged into the fleet histogram as they are.
func TestTelemetryRejectsInconsistentSnapshot(t *testing.T) {
	srv := telemetryCoordinator(t)
	for _, latency := range []string{
		`{"counts":{"700":-3},"count":-3,"sum":1,"max":1}`,
		`{"counts":{"700":2},"count":1000000,"sum":1,"max":1}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/telemetry", "application/json",
			strings.NewReader(`{"edge_id":0,"requests":1,"latency":`+latency+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("latency %s: status %d, want 400", latency, resp.StatusCode)
		}
	}
}
