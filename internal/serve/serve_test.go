package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// testNet builds a small conv net over 1×8×8 inputs (10-class head).
func testNet(seed int64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	gr := graph.New("serve-test")
	w1 := tensor.New(4, 1, 3, 3)
	rng.FillHe(w1, 9)
	b1 := tensor.New(4)
	rng.FillNormal(b1, 0, 0.1)
	c1 := gr.ConvAct(gr.InputID(), w1, b1, tensorops.ConvParams{PadH: 1, PadW: 1}, graph.ActReLU, 0, "conv1")
	p1 := gr.MaxPool(c1, tensorops.PoolParams{KH: 2, KW: 2})
	w2 := tensor.New(8, 4, 3, 3)
	rng.FillHe(w2, 36)
	c2 := gr.ConvAct(p1, w2, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, graph.ActReLU, 0, "conv2")
	p2 := gr.MaxPool(c2, tensorops.PoolParams{KH: 2, KW: 2})
	fl := gr.Flatten(p2)
	wf := tensor.New(8*2*2, 10)
	rng.FillXavier(wf, 32, 10)
	fc := gr.MatMul(fl, wf, nil, "fc")
	gr.Softmax(fc)
	return gr
}

var testItemDims = []int{1, 8, 8}

// testCurve is a 4-rung ladder over testNet's approximable ops (two
// convs and the head): exact, FP16, FP16+stride-2 sampling, and
// FP16+stride-4 sampling on the convs.
func testCurve(gr *graph.Graph) *pareto.Curve {
	ops := gr.ApproxOps()
	fp16 := approx.Config{}
	samp2 := approx.Config{}
	samp4 := approx.Config{}
	classes := gr.OpClasses()
	for i, op := range ops {
		fp16[op] = approx.KnobFP16
		samp2[op] = approx.KnobFP16
		samp4[op] = approx.KnobFP16
		if classes[i] == approx.OpConv {
			samp2[op] = approx.SamplingKnob(2, 0, tensorops.FP16)
			samp4[op] = approx.SamplingKnob(4, 0, tensorops.FP16)
		}
	}
	return pareto.NewCurve("serve-test", 90, []pareto.Point{
		{QoS: 90, Perf: 1, Config: nil},
		{QoS: 89, Perf: 1.5, Config: fp16},
		{QoS: 88, Perf: 2.25, Config: samp2},
		{QoS: 86.5, Perf: 3.2, Config: samp4},
	})
}

func testConfig(gr *graph.Graph) Config {
	return Config{
		Graph:    gr,
		Curve:    testCurve(gr),
		ItemDims: testItemDims,
		Policy:   core.PolicyEnforce,
		SLO:      250 * time.Millisecond,
	}
}

func inferBody(t *testing.T, items int, deadlineMs float64) []byte {
	t.Helper()
	dims := append([]int{items}, testItemDims...)
	in := tensor.New(dims...)
	tensor.NewRNG(42).FillNormal(in, 0, 1)
	b, err := json.Marshal(InferRequest{Input: TensorJSON{Dims: dims, Data: in.Data()}, DeadlineMs: deadlineMs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestServeBasicInfer(t *testing.T) {
	gr := testNet(1)
	s, err := New(testConfig(gr))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 2, 0))
	if code != http.StatusOK {
		t.Fatalf("infer: HTTP %d: %s", code, body)
	}
	var resp InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Output.Dims) != 2 || resp.Output.Dims[0] != 2 || resp.Output.Dims[1] != 10 {
		t.Errorf("output dims = %v, want [2 10]", resp.Output.Dims)
	}
	if resp.BatchItems < 2 {
		t.Errorf("batch items = %d, want >= 2", resp.BatchItems)
	}
	// The reply must be bit-identical to executing the same input alone
	// under the same configuration (the ConcatBatch/SplitBatch
	// invariant, end to end through HTTP).
	dims := append([]int{2}, testItemDims...)
	in := tensor.New(dims...)
	tensor.NewRNG(42).FillNormal(in, 0, 1)
	pt, _ := s.Tuner().Acquire()
	want := gr.Execute(in, pt.Config, graph.ExecOptions{})
	for i, v := range want.Data() {
		if resp.Output.Data[i] != v {
			t.Fatalf("output[%d] = %v, want %v (served output differs from direct execution)", i, resp.Output.Data[i], v)
		}
	}

	// Malformed shapes and oversized requests are rejected up front.
	if code, _ := postJSON(t, ts.URL+"/v1/infer", []byte(`{"input":{"dims":[3,3],"data":[1,2,3,4,5,6,7,8,9]}}`)); code != http.StatusBadRequest {
		t.Errorf("bad dims: HTTP %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/infer", inferBody(t, DefaultMaxBatch+1, 0)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request: HTTP %d, want 413", code)
	}

	// Spec describes the serving contract.
	specResp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer specResp.Body.Close()
	var spec SpecResponse
	if err := json.NewDecoder(specResp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Program != "serve-test" || !slices.Equal(spec.ItemDims, testItemDims) || spec.Points != 4 {
		t.Errorf("spec = %+v", spec)
	}
}

// TestServeBackpressureAndDrain pins the admission contract: a full
// queue answers 429 + Retry-After without dropping admitted work, and
// drain refuses new work with 503 while finishing everything admitted.
// The server is built without its batcher so the queue state is
// deterministic, then the batcher is released.
func TestServeBackpressureAndDrain(t *testing.T) {
	gr := testNet(2)
	cfg := testConfig(gr).withDefaults()
	cfg.MaxQueue = 2
	s := &Server{
		cfg:      cfg,
		rng:      tensor.NewRNG(3),
		queue:    make(chan *pending, cfg.MaxQueue),
		loopDone: make(chan struct{}),
	}
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s.tuner = rt
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two requests fill the queue (no batcher is draining it yet).
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postJSON(t, ts.URL+"/v1/infer", inferBody(t, 1, 0))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The third is refused with backpressure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(inferBody(t, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}

	// Release the batcher: the admitted requests complete.
	go s.loop()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("queued request %d: HTTP %d, want 200", i, c)
		}
	}

	// Drain: new work refused with 503, shutdown returns cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, _ := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 1, 0))
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining admission: HTTP %d, want 503", code)
	}
	code, _ = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d, want 503", code)
	}
	st := s.Stats()
	if st.Served != 2 || st.Rejected < 2 {
		t.Errorf("accounting after drain: served=%d rejected=%d, want 2 served and >=2 rejected", st.Served, st.Rejected)
	}

	// A refusal shows in the flight ring under the name of the counter it
	// increments, so a dump and a scrape of the same incident line up.
	events := make(map[string]bool)
	for _, e := range obs.Flight().Entries() {
		if e.Kind == "event" {
			events[e.Name] = true
		}
	}
	var exposition bytes.Buffer
	if err := obs.Default.WriteOpenMetrics(&exposition); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.rejected_full", "serve.rejected_draining"} {
		if !events[name] {
			t.Errorf("flight ring has no %q event", name)
		}
		if typ := "\n# TYPE " + strings.ReplaceAll(name, ".", "_") + " counter\n"; !strings.Contains(exposition.String(), typ) {
			t.Errorf("no counter named %q on /metrics", name)
		}
	}
}

// TestServeDeadlineExpiry pins deadline propagation: a request whose
// deadline_ms passes while it is still queued is expired by the batcher
// (504) instead of executed.
func TestServeDeadlineExpiry(t *testing.T) {
	gr := testNet(3)
	cfg := testConfig(gr).withDefaults()
	s := &Server{
		cfg:      cfg,
		rng:      tensor.NewRNG(4),
		queue:    make(chan *pending, cfg.MaxQueue),
		loopDone: make(chan struct{}),
	}
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s.tuner = rt
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 1, 30))
		done <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the 30ms deadline lapse with no batcher running, then release.
	time.Sleep(60 * time.Millisecond)
	go s.loop()
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: HTTP %d, want 504", code)
	}
	if got := s.Stats().Expired; got != 1 {
		t.Errorf("expired count = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// perfByKey maps each curve configuration to its Perf for MeasureExec
// hooks that model execution time from the curve's own promises.
func perfByKey(c *pareto.Curve, nOps int) map[string]float64 {
	m := make(map[string]float64)
	for _, pt := range c.Points {
		m[pt.Config.Key(nOps)] = pt.Perf
	}
	return m
}

// TestServeSLOControlLoopRecovery is the tentpole acceptance scenario:
// a seeded closed-loop run with a mid-run ×2 injected slowdown. The
// tuner must move to a faster configuration within two control windows
// of the step, without per-invocation thrash, and the sustained ×2
// drift must latch the recalibration alarm and surface on /healthz —
// until a hot-swapped curve clears it.
func TestServeSLOControlLoopRecovery(t *testing.T) {
	gr := testNet(5)
	curve := testCurve(gr)
	nOps := len(gr.Nodes)
	perfOf := perfByKey(curve, nOps)
	const (
		window   = 4
		budget   = 10 * time.Millisecond
		slowAt   = 20 // batch count where the ×2 slowdown begins
		requests = 60
	)
	var batches atomic.Int64
	measure := func(cfg approx.Config, items int) float64 {
		n := batches.Add(1)
		factor := 1.0
		if n > slowAt {
			factor = 2.0
		}
		return factor * budget.Seconds() / perfOf[cfg.Key(nOps)]
	}

	cfg := testConfig(gr)
	cfg.Curve = curve
	cfg.SLO = 4 * budget
	cfg.ExecBudget = budget
	cfg.Window = window
	cfg.MaxBatch = 1
	cfg.Seed = 11
	cfg.MeasureExec = measure
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	rep, err := RunLoad(context.Background(), LoadConfig{
		URL: base, Concurrency: 1, Requests: requests, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests {
		t.Fatalf("closed loop: %d ok of %d (%d rejected, %d expired, %d failed)",
			rep.OK, requests, rep.Rejected, rep.Expired, rep.Failed)
	}

	trace := s.BatchTrace()
	if len(trace) != requests {
		t.Fatalf("batch trace has %d entries, want %d (closed loop, one item per batch)", len(trace), requests)
	}
	// Before the slowdown the tuner holds the exact point; after it, it
	// must move to a faster configuration within two windows.
	firstSwitch := -1
	for i, idx := range trace {
		if idx != trace[0] {
			firstSwitch = i
			break
		}
	}
	if firstSwitch < 0 {
		t.Fatal("injected slowdown never moved the operating point")
	}
	if firstSwitch < slowAt {
		t.Errorf("switched at batch %d, before the slowdown at %d", firstSwitch, slowAt)
	}
	if firstSwitch > slowAt+2*window {
		t.Errorf("switched at batch %d; SLO recovery took more than 2 windows after batch %d", firstSwitch, slowAt)
	}
	// After the switch the modeled execution is back inside the budget,
	// so the controller must settle: total switches stay far below the
	// number of overloaded batches (the pre-fix loop re-picked every
	// invocation).
	if sw := s.Tuner().Switches(); sw > (requests/window)+1 {
		t.Errorf("switches = %d over %d windows; control loop is thrashing", sw, requests/window)
	}
	// The sustained ×2 ratio must latch drift and surface on /healthz.
	if !s.Tuner().RecalibrationNeeded() {
		t.Fatal("sustained 2x slowdown did not latch the recalibration signal")
	}
	code, body := getJSON(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz under drift: HTTP %d (%s), want 503", code, body)
	}
	var hz healthzBody
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.RecalibrationNeeded || hz.Status != "recalibration_needed" {
		t.Errorf("healthz body = %+v, want recalibration_needed", hz)
	}

	// Hot-swapping a recalibrated curve releases the latch.
	swapped := testCurve(gr)
	swapped.Program = "serve-test-v2"
	data, err := swapped.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	code, body = postJSON(t, base+"/v1/curve", data)
	if code != http.StatusOK {
		t.Fatalf("curve swap: HTTP %d: %s", code, body)
	}
	code, _ = getJSON(t, base+"/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz after curve swap: HTTP %d, want 200", code)
	}
	if s.Tuner().CurveSwaps() != 1 {
		t.Errorf("curve swaps = %d, want 1", s.Tuner().CurveSwaps())
	}
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestCurveSwapRejectsBadCurves posts curves the server must refuse to
// POST /v1/curve: a body that is not a curve, or a point with a speedup
// that is not positive, answers 400; a curve the graph cannot run, or one
// with no points, answers 422. A refusal installs nothing: the swap count
// stays 0 and the tuner keeps its active point.
func TestCurveSwapRejectsBadCurves(t *testing.T) {
	gr := testNet(7)
	s, err := New(testConfig(gr))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A sampling knob on the dense head: registered, but not for a matmul.
	var head int
	classes := gr.OpClasses()
	for i, op := range gr.ApproxOps() {
		if classes[i] != approx.OpConv {
			head = op
		}
	}
	unrunnable, err := pareto.NewCurve("serve-test", 90, []pareto.Point{
		{QoS: 90, Perf: 1, Config: approx.Config{head: approx.SamplingKnob(2, 0, tensorops.FP16)}},
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, before := s.Tuner().Acquire()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"malformed", `{"points":[`, http.StatusBadRequest},
		{"zero perf", `{"program":"serve-test","points":[{"qos":90,"perf":0}]}`, http.StatusBadRequest},
		{"negative perf", `{"program":"serve-test","points":[{"qos":90,"perf":1},{"qos":91,"perf":-1}]}`, http.StatusBadRequest},
		{"unrunnable knob", string(unrunnable), http.StatusUnprocessableEntity},
		{"no points", `{"program":"serve-test","points":[]}`, http.StatusUnprocessableEntity},
	} {
		if code, body := postJSON(t, ts.URL+"/v1/curve", []byte(tc.body)); code != tc.code {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, code, body, tc.code)
		}
		if n := s.Tuner().CurveSwaps(); n != 0 {
			t.Fatalf("%s: curve swaps = %d after a refusal, want 0", tc.name, n)
		}
		if _, idx := s.Tuner().Acquire(); idx != before {
			t.Errorf("%s: active index %d after a refusal, want %d", tc.name, idx, before)
		}
	}
}

// TestServeConcurrentRace exercises the full serve path under the race
// detector: concurrent clients (mixed item counts), live curve swaps,
// health and stats polls, and a drain racing in-flight requests. Every
// response must be one of the contract's statuses and the accounting
// must balance.
func TestServeConcurrentRace(t *testing.T) {
	gr := testNet(6)
	cfg := testConfig(gr)
	cfg.ExecBudget = 500 * time.Microsecond // tight budget: the tuner moves under load
	cfg.Policy = core.PolicyAverage
	cfg.Window = 2
	cfg.MaxQueue = 16
	cfg.Seed = 13
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	const clients = 8
	const perClient = 16
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			items := 1 + c%3
			body := inferBodyFor(items)
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // transport errors can happen once drain closes the listener
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					bad.Add(1)
				}
				resp.Body.Close()
			}
		}(c)
	}
	// Concurrent control-plane traffic: curve swaps and polls.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		swapped := testCurve(gr)
		data, _ := swapped.Marshal()
		for i := 0; i < 4; i++ {
			resp, err := client.Post(base+"/v1/curve", "application/json", bytes.NewReader(data))
			if err == nil {
				resp.Body.Close()
			}
			for _, path := range []string{"/healthz", "/statz", "/metrics"} {
				if r, err := client.Get(base + path); err == nil {
					r.Body.Close()
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Drain while traffic is still in flight.
	time.Sleep(15 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Errorf("drain under load: %v", err)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d responses outside the serving contract", n)
	}
	st := s.Stats()
	if st.Served+st.Rejected+st.Expired+st.Failed > st.Requests {
		t.Errorf("accounting: served %d + rejected %d + expired %d + failed %d > requests %d",
			st.Served, st.Rejected, st.Expired, st.Failed, st.Requests)
	}
	if st.Served > 0 && st.Batches == 0 {
		t.Error("served requests but recorded no batches")
	}
}

func inferBodyFor(items int) []byte {
	dims := append([]int{items}, testItemDims...)
	in := tensor.New(dims...)
	tensor.NewRNG(int64(items)).FillNormal(in, 0, 1)
	b, err := json.Marshal(InferRequest{Input: TensorJSON{Dims: dims, Data: in.Data()}})
	if err != nil {
		panic(err)
	}
	return b
}

// TestServeMicroBatchCoalescing pins that concurrent requests actually
// share a batch: with a generous linger and a paused batcher, several
// single-item requests land in one execution.
func TestServeMicroBatchCoalescing(t *testing.T) {
	gr := testNet(7)
	cfg := testConfig(gr).withDefaults()
	cfg.Linger = 100 * time.Millisecond
	cfg.MaxBatch = 8
	s := &Server{
		cfg:      cfg,
		rng:      tensor.NewRNG(8),
		queue:    make(chan *pending, cfg.MaxQueue),
		loopDone: make(chan struct{}),
	}
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s.tuner = rt
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 3
	var wg sync.WaitGroup
	batchItems := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 1, 0))
			if code != http.StatusOK {
				t.Errorf("request %d: HTTP %d", i, code)
				return
			}
			var resp InferResponse
			if json.Unmarshal(body, &resp) == nil {
				batchItems[i] = resp.BatchItems
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < n {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	go s.loop()
	wg.Wait()
	for i, b := range batchItems {
		if b != n {
			t.Errorf("request %d executed in a batch of %d items, want %d (coalescing broken)", i, b, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeKernelPanicFailsOnlyItsBatch: a kernel that panics inside a
// parallel loop body — on whichever goroutine of the worker team ran that
// chunk, which Server.execute's recover does not cover — must fail that batch
// with a 500 and leave the process, the batcher and the team serving.
func TestServeKernelPanicFailsOnlyItsBatch(t *testing.T) {
	gr := testNet(5)
	s, err := New(testConfig(gr))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Poison the last layer, so that both batch shards are well under way
	// on their goroutines when it is reached: the head panics on a
	// one-element bias. No batch is in flight while the graph is edited;
	// every request below is answered before the next edit.
	var fc *graph.Node
	for _, n := range gr.Nodes {
		if n.Name == "fc" {
			fc = n
		}
	}
	for round := 0; round < 4; round++ {
		fc.Bias = tensor.New(1)
		code, body := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 4, 0))
		if code != http.StatusInternalServerError || !bytes.Contains(body, []byte("execution failed")) {
			t.Fatalf("round %d, poisoned batch: HTTP %d %s, want 500 execution failed", round, code, body)
		}
		fc.Bias = nil
		if code, body := postJSON(t, ts.URL+"/v1/infer", inferBody(t, 4, 0)); code != http.StatusOK {
			t.Fatalf("round %d, request after the poisoned batch: HTTP %d %s", round, code, body)
		}
	}
}

// TestServeInferAllocs pins what one POST /v1/infer costs the process
// through Handler() — handler, batcher and tuner together, tracing off:
// 65 allocations before obs.Route, whose status writer is the one more.
func TestServeInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes sync.Pool's hit rate")
	}
	s, err := New(testConfig(testNet(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := inferBody(t, 1, 0)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", rd)
	w := &discardWriter{header: http.Header{}}
	if n := testing.AllocsPerRun(400, func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}); n > 64 || w.status != 0 {
		t.Errorf("POST /v1/infer allocates %.0f times (status %d), want at most 64", n, w.status)
	}
}

// discardWriter is a ResponseWriter that keeps only a non-200 status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int) {
	if code != http.StatusOK {
		w.status = code
	}
}
