package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/obs"
)

// traceScenario boots a traced server whose MeasureExec model turns ×2
// slower after 12 batches and drives a seeded closed loop. It returns
// the server, the flight-dump buffer, and the load report, whose
// SlowestTraces name every request the client sent.
func traceScenario(t *testing.T) (*Server, *bytes.Buffer, *LoadReport) {
	t.Helper()
	gr := testNet(9)
	flight := &bytes.Buffer{}

	// The tuner sees the same modeled ×2 slowdown as the determinism
	// scenario, so the drift latch and the config switches land on the
	// same batches in every run.
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
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 17})
	cfg.FlightLog = flight
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
	return s, flight, rep
}

// requestExemplarRe matches one serve_request_seconds bucket line that
// carries an exemplar, capturing its le bound, trace ID and value.
var requestExemplarRe = regexp.MustCompile(`^serve_request_seconds_bucket\{le="([^"]*)"\} \S+ # \{trace_id="([0-9a-f]{32})"\} (\S+)$`)

// requestExemplars returns the exemplars the process registry's
// OpenMetrics exposition carries on serve_request_seconds, keyed by the
// bucket's le bound: what a scraper sees. Each is "trace_id value".
func requestExemplars(t *testing.T) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := requestExemplarRe.FindStringSubmatch(line); m != nil {
			out[m[1]] = m[2] + " " + m[3]
		}
	}
	return out
}

// TestServeTraceAcceptance is the end-to-end demo: a seeded run whose
// modelled batch time doubles mid-run must produce (a) batch spans
// linking every member request's trace, and the request path from
// admission through batch, execute and tuner in the flight ring, (b) a
// flight dump carrying drift and config-switch events, and (c) an
// OpenMetrics exposition whose serve-latency bucket exemplars name
// traces the client saw and /debug/flight holds.
func TestServeTraceAcceptance(t *testing.T) {
	// serve.request_seconds is process-wide: earlier servers of this test
	// binary, under other tracers, left exemplars on it. Only the ones
	// this scenario records are checked.
	before := requestExemplars(t)
	t0 := obs.Now()
	s, flight, rep := traceScenario(t)
	defer s.Close()

	sent := make(map[string]bool, len(rep.SlowestTraces))
	for _, ref := range rep.SlowestTraces {
		sent[ref.TraceID] = true
	}
	if len(sent) != 48 {
		t.Fatalf("client saw %d distinct trace IDs in traceparent headers, want 48", len(sent))
	}

	// (a) Each request is executed in one batch, so the serve:batch
	// entries together link every trace the client saw, and nothing else.
	// A batch span ends before its members are answered. The flight ring
	// is process-wide and the tracer's seed fixed: the scenario's spans
	// are the ones that started at or after t0, and its traces are the
	// ones the client saw and those of the batches that executed them.
	var spans []obs.FlightEntry
	for _, e := range obs.Flight().Entries() {
		if e.Kind == "span" && e.Start >= t0 {
			spans = append(spans, e)
		}
	}
	linked := map[string]bool{}
	scenario := maps.Clone(sent)
	for _, e := range spans {
		if e.Name != "serve:batch" {
			continue
		}
		scenario[e.TraceID.String()] = true
		if len(e.Links) == 0 {
			t.Errorf("serve:batch span %s links no member trace", e.SpanID)
		}
		for _, tid := range e.Links {
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
	for _, e := range spans {
		if scenario[e.TraceID.String()] {
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
	// request-latency histogram's OpenMetrics bucket lines must name a
	// trace the client received and /debug/flight holds a span of, and
	// there must be one.
	flightTraces, err := flightSpanTraces(client, "http://"+s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	recorded := false
	for le, ex := range requestExemplars(t) {
		if ex == before[le] {
			continue // an earlier server's
		}
		recorded = true
		tid, _, _ := strings.Cut(ex, " ")
		if !sent[tid] {
			t.Errorf("exemplar in bucket le=%s names trace %s, which no client received", le, tid)
		}
		if !flightTraces[tid] {
			t.Errorf("exemplar in bucket le=%s names trace %s, of which /debug/flight holds no span", le, tid)
		}
	}
	if !recorded {
		t.Fatal("the scenario recorded no exemplar; exposition would carry none of its traces")
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
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 1})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	t0 := obs.Now()
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

	// The root span ends after the reply is written, so poll briefly. The
	// caller's trace ID and the tracer's seed are fixed: under -count an
	// earlier run left the same span in the flight ring, before t0.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		for _, e := range obs.Flight().Entries() {
			if e.Kind != "span" || e.Name != "serve:request" || e.TraceID != sc.TraceID || e.Start < t0 {
				continue
			}
			if e.SpanID != sc.SpanID || e.ParentSpanID.String() != "b7ad6b7169203331" {
				t.Errorf("serve:request span %s (parent %s), want %s under the caller's b7ad6b7169203331",
					e.SpanID, e.ParentSpanID, sc.SpanID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no serve:request span of the continued trace in the flight ring")
		}
	}
}

// TestServeFlightJoinsRequestToBatch checks that the flight ring alone
// leads from a request to the batch that executed it: the request's trace
// ID is among the links of a serve:batch entry, and that batch's trace
// holds its serve:execute and serve:tuner children, parented on it.
func TestServeFlightJoinsRequestToBatch(t *testing.T) {
	cfg := testConfig(testNet(9))
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{IDSeed: 29})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The ring is process-wide: look only at what this test recorded.
	var since uint64
	for _, e := range obs.Flight().Entries() {
		since = max(since, e.Seq)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(inferBody(t, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}
	tid := obs.Extract(resp.Header).TraceID
	if tid.IsZero() {
		t.Fatal("traced server answered without a traceparent")
	}

	// A batch's children end before it, so they precede it in the ring.
	var batch *obs.FlightEntry
	entries := obs.Flight().Entries()
	for i, e := range entries {
		if e.Seq > since && e.Kind == "span" && e.Name == "serve:batch" && slices.Contains(e.Links, tid) {
			batch = &entries[i]
		}
	}
	if batch == nil {
		t.Fatalf("no serve:batch entry in the flight ring links request trace %s", tid)
	}
	children := map[string]obs.SpanID{}
	for _, e := range entries {
		if e.Seq > since && e.Kind == "span" && e.TraceID == batch.TraceID {
			children[e.Name] = e.ParentSpanID
		}
	}
	for _, name := range []string{"serve:execute", "serve:tuner"} {
		if parent, ok := children[name]; !ok || parent != batch.SpanID {
			t.Errorf("%s of batch trace %s: found %v, parent %s, want parent %s", name, batch.TraceID, ok, parent, batch.SpanID)
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
