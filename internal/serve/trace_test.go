package serve

import (
	"bytes"
	"context"
	"encoding/json"
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
// sampler, the flight-dump buffer, and the load report.
func traceScenario(t *testing.T) (*Server, *obs.TailSampler, *bytes.Buffer, *LoadReport) {
	t.Helper()
	gr := testNet(9)
	sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: 17, Floor: -1})
	tracer := obs.NewTracer(obs.TracerOptions{
		KeepInMemory: 4096,
		IDSeed:       17,
		Sinks:        []obs.SpanSink{sampler},
	})
	flight := &bytes.Buffer{}

	// The tuner sees the same modeled ×2 slowdown as the determinism
	// scenario (so config switches deterministically precede the drift
	// latch), while SlowdownFactor stretches real wall time so "slow"
	// keeps reflect genuine request latency.
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
	cfg.Sampler = sampler
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
		SlowestK:    3,
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
	return s, sampler, flight, rep
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

// TestServeTraceAcceptance is the end-to-end demo pinned by the issue:
// a seeded run with an injected ×3 slowdown must produce (a) a kept
// tail-sampled trace crossing admission → batch → execute → tuner,
// (b) a flight dump carrying drift and config-switch events, and (c) an
// OpenMetrics exposition whose serve-latency bucket exemplar points at a
// kept trace.
func TestServeTraceAcceptance(t *testing.T) {
	// serve.request_seconds is process-wide: earlier servers of this test
	// binary, under other tracers and samplers, left exemplars on it. Only
	// the ones this scenario records are checked.
	before := exemplarsOf(t, qRequest.Snapshot())
	s, sampler, flight, rep := traceScenario(t)
	defer s.Close()

	// (a) At least one kept trace holds the full request path. The batch
	// span ends before the member fan-out, so the linked subtree must be
	// visible to the member's completion-time decision.
	kept := sampler.Kept()
	if len(kept) == 0 {
		t.Fatal("tail sampler kept no traces despite slowdown + tuner churn")
	}
	wantSpans := []string{"serve:request", "serve:admit", "serve:batch", "serve:execute", "serve:tuner"}
	keptIDs := make(map[string]bool, len(kept))
	fullPath := false
	for _, kt := range kept {
		keptIDs[kt.TraceID.String()] = true
		names := make(map[string]bool, len(kt.Spans))
		for _, sp := range kt.Spans {
			names[sp.Name] = true
		}
		all := true
		for _, w := range wantSpans {
			if !names[w] {
				all = false
				break
			}
		}
		if all {
			fullPath = true
		}
	}
	if !fullPath {
		t.Errorf("no kept trace contains all of %v; kept: %+v", wantSpans, kept)
	}

	// Batch traces are dropped from the sampler right after their linked
	// fan-out, so once every request's verdict is in, the pending map
	// must drain to empty — nothing may sit pinned until eviction. The
	// last finishRequest can lag the last HTTP response by a beat, so
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for sampler.PendingCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := sampler.PendingCount(); n != 0 {
		t.Errorf("tail sampler still holds %d pending traces after all requests finished; batch traces leak", n)
	}
	if _, _, evicted := sampler.Stats(); evicted != 0 {
		t.Errorf("tail sampler evicted %d undecided traces in a run far below MaxPending", evicted)
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
	tids := rep.TraceIDs()
	if len(tids) == 0 {
		t.Fatal("load report carries no trace IDs; traceparent response header missing")
	}
	for _, event := range []string{"runtime.drift_alarm", "runtime.config_switch"} {
		if err := VerifyFlight(context.Background(), client, "http://"+s.Addr(), event, tids); err != nil {
			t.Errorf("flight verification: %v", err)
		}
	}

	// (c) Exemplars: every exemplar this scenario left on the
	// request-latency histogram must reference a kept (retrievable) trace,
	// there must be one, and the OpenMetrics exposition must carry it on a
	// serve_request_seconds bucket line.
	var promTID string
	for i, ex := range exemplarsOf(t, qRequest.Snapshot()) {
		if ex == before[i] {
			continue // an earlier server's
		}
		if !keptIDs[ex.TraceID.String()] {
			t.Errorf("exemplar in bucket %d references unkept trace %s", i, ex.TraceID)
		}
		promTID = ex.TraceID.String()
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
		t.Errorf("openmetrics exposition has no serve_request_seconds bucket exemplar for kept trace %s", promTID)
	}

	// The loadgen report's slowest-trace section must point at server-side
	// traces (non-empty hex IDs the server minted).
	if len(rep.SlowestTraces) == 0 {
		t.Error("load report has no slowest traces despite tracing enabled")
	}
	for _, ref := range rep.SlowestTraces {
		if len(ref.TraceID) != 32 {
			t.Errorf("slowest trace carries malformed trace ID %q", ref.TraceID)
		}
	}
}

// requestBracket returns a server, traced or not, and the per-request
// tracing bracket over it: span start, header injection, end, sampling
// decision — what the allocation pins and the overhead benchmark run.
func requestBracket(tb testing.TB, traced bool) func() {
	cfg := testConfig(testNet(9))
	if traced {
		sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: 7, Floor: -1})
		cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 7, Sinks: []obs.SpanSink{sampler}})
		cfg.Sampler = sampler
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
		s.finishRequest(sp, 3*time.Millisecond, http.StatusOK, 0, 0)
	}
}

// TestServeDisabledTracingZeroAlloc and TestServeTracedBracketAllocs pin
// the bracket's allocations. Disabled (no Tracer configured) it is one nil
// check and nothing else; enabled it was 13 before Span.End stopped copying
// the attribute map it hands to the sinks, 11 since.
func TestServeDisabledTracingZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, requestBracket(t, false)); n != 0 {
		t.Errorf("disabled-tracing request bracket allocates %.1f times per op, want 0", n)
	}
}

func TestServeTracedBracketAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, requestBracket(t, true)); n > 11 {
		t.Errorf("traced request bracket allocates %.0f times per op, want at most 11", n)
	}
}

// TestServeTraceparentPropagation checks that an inbound W3C
// traceparent header continues the caller's trace: the response header
// echoes the same trace ID with a server-minted span ID.
func TestServeTraceparentPropagation(t *testing.T) {
	gr := testNet(9)
	sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: 1, Floor: 1})
	cfg := testConfig(gr)
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 1, Sinks: []obs.SpanSink{sampler}})
	cfg.Sampler = sampler
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

	// Floor=1 keeps everything: the continued trace must be retrievable.
	found := false
	for _, kt := range sampler.Kept() {
		if kt.TraceID.String() == "0af7651916cd43dd8448eb211c80319c" {
			found = true
		}
	}
	if !found {
		t.Error("continued trace not kept despite Floor=1")
	}
}

// BenchmarkServeTracingOverhead measures the per-request cost of the
// tracing bracket itself — span start, header injection, end, sampling
// decision — against the disabled baseline benchmarked by the nil-check
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
