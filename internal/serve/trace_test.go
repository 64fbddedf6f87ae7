package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/obs"
)

// traceScenario boots a traced server with a real injected slowdown
// (SlowdownFactor stretches batch wall time after SlowdownAfter
// batches) and drives a seeded closed loop. It returns the server, the
// tracer, the flight-dump buffer, and the load report, whose
// SlowestTraces name every request the client sent.
func traceScenario(t *testing.T) (*Server, *obs.Tracer, *bytes.Buffer, *LoadReport) {
	t.Helper()
	gr := testNet(9)
	tracer := obs.NewTracer(obs.TracerOptions{KeepInMemory: 4096, IDSeed: 17})
	flight := &bytes.Buffer{}

	// The tuner sees the same modeled ×2 slowdown as the determinism
	// scenario (so config switches deterministically precede the drift
	// latch), while SlowdownFactor stretches real wall time so request
	// latency reflects it.
	curve := testCurve(gr)
	nOps := len(gr.Nodes)
	perfOf := perfByKey(curve, nOps)
	const budget = 5 * time.Millisecond
	var batches atomic.Int64
	measure := func(cfg approx.Config, items int) float64 {
		n := batches.Add(1)
		factor := 1.0
		if n > 12 {
			factor = 2.0
		}
		return factor * budget.Seconds() / perfOf[cfg.Key(nOps)]
	}

	cfg := testConfig(gr)
	cfg.Curve = curve
	cfg.SLO = 4 * budget
	cfg.ExecBudget = budget
	cfg.Window = 3
	cfg.MaxBatch = 1
	cfg.Seed = 21
	cfg.MeasureExec = measure
	cfg.Tracer = tracer
	cfg.FlightLog = flight
	cfg.SlowdownFactor = 3
	cfg.SlowdownAfter = 12
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		s.Close()
		t.Fatal(err)
	}

	rep, err := RunLoad(context.Background(), LoadConfig{
		URL:         "http://" + s.Addr(),
		Concurrency: 1,
		Requests:    48,
		Seed:        5,
		SlowestK:    48,
	})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	if rep.OK != 48 {
		s.Close()
		t.Fatalf("closed loop: %d ok of 48 (%d rejected, %d expired, %d failed)",
			rep.OK, rep.Rejected, rep.Expired, rep.Failed)
	}
	return s, tracer, flight, rep
}

// exemplarsOf returns a snapshot's exemplars by bucket, as its wire form
// carries them.
func exemplarsOf(t *testing.T, s *obs.QSnapshot) map[int]obs.Exemplar {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		Exemplars map[int]obs.Exemplar `json:"exemplars"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	return w.Exemplars
}

// TestServeTraceAcceptance is the end-to-end demo: a seeded run with an
// injected ×3 slowdown must produce (a) batch spans linking every member
// request's trace, and the request path from admission through batch,
// execute and tuner in the flight ring, (b) a flight dump carrying drift
// and config-switch events, and (c) an OpenMetrics exposition whose
// serve-latency bucket exemplars name traces the client saw and
// /debug/flight holds.
func TestServeTraceAcceptance(t *testing.T) {
	// serve.request_seconds is process-wide: earlier servers of this test
	// binary, under other tracers, left exemplars on it. Only the ones
	// this scenario records are checked.
	before := exemplarsOf(t, qRequest.Snapshot())
	s, tracer, flight, rep := traceScenario(t)
	defer s.Close()

	sent := make(map[string]bool, len(rep.SlowestTraces))
	for _, ref := range rep.SlowestTraces {
		sent[ref.TraceID] = true
	}
	if len(sent) != 48 {
		t.Fatalf("client saw %d distinct trace IDs in traceparent headers, want 48", len(sent))
	}

	// (a) Each request is executed in one batch, so the serve:batch
	// records together link every trace the client saw, and nothing else.
	// A batch span ends before its members are answered.
	linked := map[string]bool{}
	scenario := map[obs.TraceID]bool{}
	for _, rec := range tracer.Records() {
		scenario[rec.TraceID] = true
		if rec.Name != "serve:batch" {
			continue
		}
		if len(rec.Links) == 0 {
			t.Errorf("serve:batch span %s links no member trace", rec.SpanID)
		}
		for _, tid := range rec.Links {
			linked[tid.String()] = true
		}
	}
	for tid := range sent {
		if !linked[tid] {
			t.Errorf("no serve:batch span links trace %s", tid)
		}
	}
	for tid := range linked {
		if !sent[tid] {
			t.Errorf("a serve:batch span links trace %s, which no client saw", tid)
		}
	}
	inFlight := map[string]bool{}
	for _, e := range obs.Flight().Entries() {
		if e.Kind == "span" && scenario[e.TraceID] {
			inFlight[e.Name] = true
		}
	}
	for _, want := range []string{"serve:request", "serve:admit", "serve:batch", "serve:execute", "serve:tuner"} {
		if !inFlight[want] {
			t.Errorf("flight ring holds no %s span of this scenario", want)
		}
	}

	// (b) The drift latch dumped the flight ring at alarm time; the dump
	// holds the alarm and the latch marker (the first config switch lands
	// after the latch in this scenario, so it is asserted on the live ring
	// below).
	dump := flight.String()
	if dump == "" {
		t.Fatal("drift latch produced no flight dump")
	}
	for _, want := range []string{"serve.drift_latch", "runtime.drift_alarm"} {
		if !strings.Contains(dump, want) {
			t.Errorf("flight dump missing %q event:\n%s", want, dump)
		}
	}

	// The live /debug/flight ring must verify end-of-run: drift and
	// config-switch events plus at least one span from a trace the client
	// saw in a traceparent response header.
	client := &http.Client{Timeout: 10 * time.Second}
	var tids []string
	for _, ref := range rep.SlowestTraces[:3] {
		tids = append(tids, ref.TraceID)
	}
	for _, event := range []string{"runtime.drift_alarm", "runtime.config_switch"} {
		if err := VerifyFlight(context.Background(), client, "http://"+s.Addr(), event, tids); err != nil {
			t.Errorf("flight verification: %v", err)
		}
	}

	// (c) Exemplars: every exemplar this scenario left on the
	// request-latency histogram must name a trace the client received and
	// /debug/flight holds a span of, there must be one, and the
	// OpenMetrics exposition must carry it on a serve_request_seconds
	// bucket line.
	flightTraces, err := flightSpanTraces(client, "http://"+s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var promTID string
	for i, ex := range exemplarsOf(t, qRequest.Snapshot()) {
		if ex == before[i] {
			continue // an earlier server's
		}
		tid := ex.TraceID.String()
		if !sent[tid] {
			t.Errorf("exemplar in bucket %d names trace %s, which no client received", i, tid)
		}
		if !flightTraces[tid] {
			t.Errorf("exemplar in bucket %d names trace %s, of which /debug/flight holds no span", i, tid)
		}
		promTID = tid
	}
	if promTID == "" {
		t.Fatal("the scenario recorded no exemplar; exposition would carry none of its traces")
	}
	var buf bytes.Buffer
	if err := obs.Default.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "serve_request_seconds_bucket{") &&
			strings.Contains(line, `trace_id="`+promTID+`"`) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("openmetrics exposition has no serve_request_seconds bucket exemplar for trace %s", promTID)
	}

	// The loadgen report's slowest-trace section must point at server-side
	// traces (non-empty hex IDs the server minted).
	for _, ref := range rep.SlowestTraces {
		if len(ref.TraceID) != 32 {
			t.Errorf("slowest trace carries malformed trace ID %q", ref.TraceID)
		}
	}
}

// requestBracket returns a server, traced or not, and the per-request
// tracing bracket over it: span start, header injection, end, latency
// observation — what the allocation pins and the overhead benchmark run.
func requestBracket(tb testing.TB, traced bool) func() {
	cfg := testConfig(testNet(9))
	if traced {
		cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 7})
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
	return func() {
		sp := s.startRequestSpan(w, r)
		finishRequest(sp, time.Now(), http.StatusOK)
	}
}

// TestServeDisabledTracingZeroAlloc and TestServeTracedBracketAllocs pin
// the bracket's allocations. Disabled (no Tracer configured) it is one nil
// check and nothing else; enabled it is 10, one of them the exemplar every
// OK request leaves.
func TestServeDisabledTracingZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, requestBracket(t, false)); n != 0 {
		t.Errorf("disabled-tracing request bracket allocates %.1f times per op, want 0", n)
	}
}

func TestServeTracedBracketAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, requestBracket(t, true)); n > 10 {
		t.Errorf("traced request bracket allocates %.0f times per op, want at most 10", n)
	}
}

// TestServeTraceparentPropagation checks that an inbound W3C
// traceparent header continues the caller's trace: the response header
// echoes the same trace ID with a server-minted span ID, and the server's
// serve:request span carries the caller's trace.
func TestServeTraceparentPropagation(t *testing.T) {
	gr := testNet(9)
	cfg := testConfig(gr)
	tracer := obs.NewTracer(obs.TracerOptions{IDSeed: 1})
	cfg.Tracer = tracer
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(inferBody(t, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, parent)
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}
	sc := obs.Extract(resp.Header)
	if !sc.Valid() {
		t.Fatalf("response traceparent %q invalid", resp.Header.Get(obs.TraceparentHeader))
	}
	if got := sc.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace ID not propagated: got %s", got)
	}
	if sc.SpanID.String() == "b7ad6b7169203331" {
		t.Error("server echoed the caller's span ID instead of minting its own")
	}

	// The root span ends after the reply is written, so poll briefly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		for _, rec := range tracer.Records() {
			if rec.Name != "serve:request" || rec.TraceID != sc.TraceID {
				continue
			}
			if rec.SpanID != sc.SpanID || rec.ParentSpanID.String() != "b7ad6b7169203331" {
				t.Errorf("serve:request span %s (parent %s), want %s under the caller's b7ad6b7169203331",
					rec.SpanID, rec.ParentSpanID, sc.SpanID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no serve:request span of the continued trace in the tracer's records")
		}
	}
}

// flightSpanTraces fetches base's /debug/flight dump and returns the trace
// IDs its span entries carry.
func flightSpanTraces(client *http.Client, base string) (map[string]bool, error) {
	resp, err := client.Get(base + "/debug/flight")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]bool{}
	dec := json.NewDecoder(resp.Body)
	for {
		var e obs.FlightEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		if e.Kind == "span" {
			out[e.TraceID.String()] = true
		}
	}
}

// BenchmarkServeTracingOverhead measures the per-request cost of the
// tracing bracket itself — span start, header injection, end, latency
// observation — against the disabled baseline benchmarked by the nil-check
// sub-benchmark.
func BenchmarkServeTracingOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		bracket := requestBracket(b, traced)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bracket()
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
