package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The serving workloads run the server the way cmd/approxserve starts it
// by default — request tracing and tail sampling on, 2 ms linger, batches
// of up to 8, enforce policy — in this process, on a loopback port, with
// one client connection per processor.
const (
	serveSLO     = 100 * time.Millisecond
	serveBodies  = 8  // distinct request bodies, cycled
	serveSampled = 16 // every 16th response has its output verified
	// clientTimeout bounds one HTTP call; it is far above any latency the
	// workloads produce, so a timeout is a failure, never a measurement.
	clientTimeout = 10 * time.Second
)

// ladder is the fixed four-point tradeoff curve both servers ship: the
// exec_fresh configurations in order of modeled speedup. The speedups are
// the knobs' compute-reduction factors, not measurements — on this host
// fp16 is slower than exact (exec.real_speedup.fp16), so the tuner
// climbing the ladder need not make a batch faster.
var ladder = []struct {
	config string
	perf   float64
}{{"exact", 1}, {"fp16", 1.2}, {"perf50", 1.6}, {"samp50", 2}}

// ladderCurve builds the ladder for a graph, QoS stepping down half a
// point per rung from the planted baseline.
func ladderCurve(g *graph.Graph, baseQoS float64) (*pareto.Curve, error) {
	pts := make([]pareto.Point, len(ladder))
	for i, r := range ladder {
		cfg, err := execConfig(g, r.config)
		if err != nil {
			return nil, err
		}
		pts[i] = pareto.Point{QoS: baseQoS - 0.5*float64(i), Perf: r.perf, Config: cfg}
	}
	return pareto.NewCurve(g.Name, baseQoS, pts), nil
}

// served is one running server with the inputs and answers of its
// workload.
type served struct {
	model  *models.Model
	curve  *pareto.Curve
	srv    *serve.Server
	url    string
	client *http.Client
	bodies [][]byte
	inputs []*tensor.Tensor
	argmax [][]int // [body][curve index], from direct execution
}

// startServer is a serving workload's set-up up to the first request:
// build the model, build the curve, start the server, make the client,
// generate the bodies. traced=false starts it without request tracing
// (only the tracing-overhead micro-loop wants that).
func startServer(model string, seed int64, traced bool) (*served, error) {
	b, err := models.Build(model, models.Scale{Images: 16, Width: benchWidth, Seed: seed})
	if err != nil {
		return nil, err
	}
	m := b.Model
	curve, err := ladderCurve(m.Graph, b.BaselineAcc)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Graph:    m.Graph,
		Curve:    curve,
		ItemDims: []int{m.C, m.H, m.W},
		Policy:   core.PolicyEnforce,
		SLO:      serveSLO,
		Window:   serve.DefaultWindow,
		MaxBatch: serve.DefaultMaxBatch,
		MaxQueue: serve.DefaultMaxQueue,
		Linger:   serve.DefaultLinger,
		Seed:     seed,
	}
	if traced {
		sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: seed})
		cfg.Sampler = sampler
		cfg.Tracer = obs.NewTracer(obs.TracerOptions{KeepInMemory: 1024, IDSeed: seed, Sinks: []obs.SpanSink{sampler}})
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		_ = srv.Close()
		return nil, err
	}
	n := nproc()
	s := &served{
		model: m, curve: curve, srv: srv, url: "http://" + srv.Addr() + "/v1/infer",
		client: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: clientTimeout}).DialContext,
				MaxIdleConns:        n,
				MaxIdleConnsPerHost: n,
				MaxConnsPerHost:     n,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
	// The bodies are the first images of the model's own seeded dataset:
	// inputs the network separates, so the answers differ from body to
	// body and a wrong one shows.
	per := m.C * m.H * m.W
	for i := 0; i < serveBodies; i++ {
		in := tensor.FromSlice(b.Dataset.Images.Data()[i*per:(i+1)*per], 1, m.C, m.H, m.W)
		body, err := json.Marshal(serve.InferRequest{Input: serve.TensorJSON{Dims: []int{m.C, m.H, m.W}, Data: in.Data()}})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.inputs = append(s.inputs, in)
	}
	return s, nil
}

// directAnswers executes every body under every curve configuration,
// without the server: what a response's argmax must be.
func (s *served) directAnswers() {
	s.argmax = make([][]int, len(s.inputs))
	for i, in := range s.inputs {
		for _, pt := range s.curve.Points {
			out := s.model.Graph.Execute(in, pt.Config, graph.ExecOptions{})
			s.argmax[i] = append(s.argmax[i], out.ArgMax())
		}
	}
}

// stop drains the server and closes the client's connections.
func (s *served) stop() {
	_ = s.srv.Close()
	s.client.CloseIdleConnections()
}

// reply is what the client saw of one request.
type reply struct {
	body      int
	due, sent time.Time
	latency   time.Duration // from due (open loop) or sent (closed loop)
	slow      float64       // the host's slowness while it was in flight
	status    int           // 0: transport failure; -1: never sent
	resp      serve.InferResponse
	mismatch  string // non-empty when a sampled output did not verify
}

func (r *reply) ok() bool { return r.status == http.StatusOK && r.mismatch == "" }

// timerMs is the part of the request's time that was a timer wait: the
// batcher's linger, which a slow host does not stretch. It goes onto the
// host clock as it is; everything else is divided by the host's slowness.
// (Dividing all of it over-corrected serve_small_closed, where the linger
// is half a request: ten runs spread by 0.13 that way, 0.06 raw.)
func (r *reply) timerMs() float64 {
	return min(r.resp.QueueMs, float64(serve.DefaultLinger)/1e6, float64(r.latency)/1e6)
}

// ms is the request's latency on the host clock.
func (r *reply) ms() float64 {
	t := r.timerMs()
	return t + (float64(r.latency)/1e6-t)/r.slow
}

// queueMs is the server's queue time on the host clock.
func (r *reply) queueMs() float64 {
	t := r.timerMs()
	return t + (r.resp.QueueMs-t)/r.slow
}

// settle reads, for every reply, the host's slowness over its flight. It
// runs after the load, when the clock has samples on both sides.
func settle(replies []reply, host *hostClock) {
	for i := range replies {
		r := &replies[i]
		r.slow = host.factor(r.due, r.due.Add(r.latency))
	}
}

// post sends body i and fills in the reply; verify also checks the
// output's shape and argmax against direct execution.
func (s *served) post(ctx context.Context, r *reply, verify bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(s.bodies[r.body]))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		return
	}
	if err := json.Unmarshal(data, &r.resp); err != nil {
		r.mismatch = "undecodable response: " + err.Error()
		return
	}
	if !verify {
		return
	}
	out := r.resp.Output
	idx := r.resp.ConfigIndex
	classes := s.model.Classes
	switch {
	case len(out.Dims) != 2 || out.Dims[0] != 1 || out.Dims[1] != classes || len(out.Data) != classes:
		r.mismatch = fmt.Sprintf("output dims %v with %d values, want [1 %d]", out.Dims, len(out.Data), classes)
	case idx < 0 || idx >= len(s.argmax[r.body]):
		r.mismatch = fmt.Sprintf("config_index %d outside the %d-point curve", idx, len(s.argmax[r.body]))
	default:
		if got := tensor.FromSlice(out.Data, out.Dims...).ArgMax(); got != s.argmax[r.body][idx] {
			r.mismatch = fmt.Sprintf("body %d under config %d: argmax %d, direct execution gives %d", r.body, idx, got, s.argmax[r.body][idx])
		}
	}
}

// closedLoop has nproc clients each send its next request when the
// previous one is answered, n requests in all, cycling the bodies.
func (s *served) closedLoop(ctx context.Context, host *hostClock, n int, rec *recorder, root span, opBase int64) ([]reply, time.Duration) {
	replies := make([]reply, n)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				r := &replies[i]
				r.body = i % len(s.bodies)
				r.sent = time.Now()
				r.due = r.sent
				sp := rec.start("client.request", root, opBase+int64(i))
				s.post(ctx, r, i%serveSampled == 0)
				r.latency = time.Since(r.sent)
				sp.end()
				recordServerSpans(rec, sp, opBase+int64(i), r)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	settle(replies, host)
	// The loop's wall time is its requests' latencies end to end on each
	// client, so it goes onto the host clock at their overall rate.
	var raw, normed float64
	for i := range replies {
		raw += float64(replies[i].latency) / 1e6
		normed += replies[i].ms()
	}
	return replies, time.Duration(float64(wall) * ratio(normed, raw))
}

// recordServerSpans synthesises the server-side spans of an answered
// request from the queue and execute times its response carries. The
// response does not say when they started, so they are laid end to end
// against the end of the request: execute finishes as the reply leaves.
func recordServerSpans(rec *recorder, parent span, op int64, r *reply) {
	if rec == nil || r.status != http.StatusOK {
		return
	}
	end := rec.since(r.due) + r.latency
	exec := time.Duration(r.resp.ExecMs * float64(time.Millisecond))
	queue := time.Duration(r.resp.QueueMs * float64(time.Millisecond))
	rec.add("serve.execute", parent, op, end-exec, exec)
	rec.add("serve.queue", parent, op, end-exec-queue, queue)
}

// serveStats is the server-side view of a measured interval.
type serveStats struct {
	batches, served, rejected, expired int64
	switches                           int
	trace                              []int
}

func (s *served) snapshot() serveStats {
	st := s.srv.Stats()
	return serveStats{batches: st.Batches, served: st.Served, rejected: st.Rejected, expired: st.Expired,
		switches: st.Switches, trace: s.srv.BatchTrace()}
}

// reportServer sets the serve.* per-layer metrics from the replies of the
// measured interval and the server's counters before and after it.
func reportServer(res *results, replies []reply, before, after serveStats) {
	var queue, exec, over []float64
	for i := range replies {
		r := &replies[i]
		if r.status != http.StatusOK {
			continue
		}
		// The server's own queue and execute times go onto the host clock
		// at their request's rate. Overhead is what is left of the time
		// from sending (not from the due time: waiting for a free
		// connection is the generator's lag, not the server's work).
		q, e := r.queueMs(), r.resp.ExecMs/r.slow
		queue = append(queue, q)
		exec = append(exec, e)
		over = append(over, r.ms()-float64(r.sent.Sub(r.due))/1e6/r.slow-q-e)
	}
	for name, v := range map[string][]float64{"serve.queue": queue, "serve.exec": exec, "serve.overhead": over} {
		s := sorted(v)
		res.set(name+".p50_ms", quantile(s, 0.50))
		res.set(name+".p95_ms", quantile(s, 0.95))
	}
	batches := after.batches - before.batches
	res.set("serve.batches", float64(batches))
	res.set("serve.batch.items_mean", ratio(float64(after.served-before.served), float64(batches)))
	res.set("serve.rejected", float64(after.rejected-before.rejected))
	res.set("serve.expired", float64(after.expired-before.expired))
	res.set("serve.tuner.switches", float64(after.switches-before.switches))
	var idx []float64
	for _, i := range after.trace[min(len(before.trace), len(after.trace)):] {
		idx = append(idx, float64(i))
	}
	res.set("serve.tuner.config_index_mean", mean(idx))
}

// countFailures adds the replies to the attempted/failed tally.
func countFailures(res *results, replies []reply) {
	for i := range replies {
		r := &replies[i]
		res.attempted++
		switch {
		case r.status == -1:
			res.fail("request %d was never sent", i)
		case r.status == 0:
			res.fail("request %d: transport failure", i)
		case r.status != http.StatusOK:
			res.fail("request %d: HTTP %d", i, r.status)
		case r.mismatch != "":
			res.fail("request %d: %s", i, r.mismatch)
		}
	}
}

// checkServeExpected pins the direct-execution answers themselves on the
// expected seed; the responses were already compared with them.
func checkServeExpected(rc runConfig, model string, s *served, res *results) error {
	if rc.writeExpected {
		return updateExpected(func(e *expectedFile) {
			if e.Serve == nil {
				e.Serve = map[string][][]int{}
			}
			e.Serve[model] = s.argmax
		})
	}
	if rc.seed != expectedSeed {
		res.note("seed %d has no expected.json entry: sampled responses checked against direct execution only", rc.seed)
		return nil
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	res.note("direct-execution answers checked against expected.json")
	want := exp.Serve[model]
	res.attempted++
	if fmt.Sprint(want) != fmt.Sprint(s.argmax) {
		res.fail("%s argmax table %v, expected %v", model, s.argmax, want)
	}
	return nil
}
