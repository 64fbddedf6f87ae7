package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// handBuilt returns a server whose batcher has not been started, so a test
// can arrange the queue and the arrival count before collect or loop runs.
func handBuilt(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg = cfg.withDefaults()
	rt, err := core.NewRuntimeTuner(cfg.Curve, cfg.Policy, cfg.ExecBudget.Seconds(), cfg.Window, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		cfg:      cfg,
		tuner:    rt,
		rng:      tensor.NewRNG(cfg.Seed + 1),
		queue:    make(chan *pending, cfg.MaxQueue),
		loopDone: make(chan struct{}),
		poke:     make(chan struct{}, 1),
	}
}

// TestCollectPolicy pins the batcher's waiting policy on a server driven
// by hand: what is queued joins without a wait, only a request counted in
// s.arriving is waited for, the wait ends when it is enqueued or refused
// and at Linger at the latest, and an idle server arms no timer at all
// (stats.lingerWaits counts exactly the batches that armed one).
func TestCollectPolicy(t *testing.T) {
	const linger = 150 * time.Millisecond
	const prompt = linger / 3 // "did not wait for the bound"
	req := func(items int) *pending { return &pending{items: items} }
	for _, tc := range []struct {
		name     string
		first    int   // items of the batch's first request
		queued   []int // items of the requests already queued
		arriving int64
		closed   bool                                 // the queue is closed after queued
		later    func(s *Server, after time.Duration) // runs beside collect
		reqs     int                                  // requests in the batch
		held     bool
		left     int // requests left in the queue
		waited   bool
		expired  bool
	}{
		{name: "idle server, nothing arriving", first: 1, reqs: 1},
		{name: "queued followers join at once", first: 1, queued: []int{1, 2, 1}, reqs: 4},
		{name: "queued followers fill the batch", first: 2, queued: []int{3, 3, 1}, reqs: 3, left: 1},
		{name: "an overflowing follower is held", first: 3, queued: []int{2, 6, 1}, reqs: 2, held: true, left: 1},
		{name: "a full first request takes nobody", first: 8, queued: []int{1}, arriving: 1, reqs: 1, left: 1},
		{name: "a closed queue ends the batch", first: 1, queued: []int{1}, arriving: 1, closed: true, reqs: 2},
		{name: "a known arrival is waited for", first: 1, arriving: 1, reqs: 2, waited: true,
			later: func(s *Server, after time.Duration) {
				time.Sleep(after)
				s.queue <- req(1)
				s.arrived()
			}},
		{name: "a refused arrival ends the wait", first: 1, arriving: 1, reqs: 1, waited: true,
			later: func(s *Server, after time.Duration) {
				time.Sleep(after)
				s.arrived()
			}},
		{name: "one of two arrivals refused, the other waited for", first: 1, arriving: 2, reqs: 2, waited: true,
			later: func(s *Server, after time.Duration) {
				time.Sleep(after)
				s.arrived()
				time.Sleep(after)
				s.queue <- req(1)
				s.arrived()
			}},
		{name: "an arrival that never comes costs Linger, once", first: 1, arriving: 1, reqs: 1, waited: true, expired: true},
		{name: "arrivals keep coming, the bound holds", first: 1, arriving: 2, reqs: 3, waited: true, expired: true,
			later: func(s *Server, after time.Duration) {
				for i := 0; i < 2; i++ {
					time.Sleep(linger / 3)
					s.queue <- req(1)
					s.poke <- struct{}{} // as arrived() would, with a next one already decoding
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(testNet(1))
			cfg.Linger = linger
			cfg.MaxBatch = 8
			s := handBuilt(t, cfg)
			for _, items := range tc.queued {
				s.queue <- req(items)
			}
			if tc.closed {
				close(s.queue)
			}
			s.arriving.Store(tc.arriving)
			var wg sync.WaitGroup
			if tc.later != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tc.later(s, 5*time.Millisecond)
				}()
			}
			start := time.Now()
			batch, lingered := s.collect(req(tc.first))
			took := time.Since(start)
			wg.Wait()

			if len(batch) != tc.reqs {
				t.Errorf("batch of %d requests, want %d", len(batch), tc.reqs)
			}
			if (s.held != nil) != tc.held {
				t.Errorf("held = %v, want held: %v", s.held, tc.held)
			}
			if !tc.closed && len(s.queue) != tc.left {
				t.Errorf("%d requests left queued, want %d", len(s.queue), tc.left)
			}
			waits, expired := s.stats.lingerWaits.Load(), s.stats.lingerExpired.Load()
			if (waits == 1) != tc.waited || waits > 1 {
				t.Errorf("linger timer armed %d times, want armed: %v", waits, tc.waited)
			}
			if (expired == 1) != tc.expired {
				t.Errorf("linger expired %d times, want expired: %v", expired, tc.expired)
			}
			switch {
			case !tc.waited:
				if lingered != 0 || took > prompt {
					t.Errorf("reported %v of waiting and took %v; nothing was arriving", lingered, took)
				}
			case tc.expired:
				if took < linger || took > 2*linger {
					t.Errorf("took %v, want the Linger bound %v (and not twice it)", took, linger)
				}
			default:
				if took > linger-prompt {
					t.Errorf("took %v: the wait ran toward the %v bound instead of ending with the arrival", took, linger)
				}
			}
			if tc.waited && (lingered <= 0 || lingered > took) {
				t.Errorf("reported %v of waiting in a call of %v", lingered, took)
			}
		})
	}
}

// inferOnce posts one request and returns the decoded reply and the
// client-side latency.
func inferOnce(t *testing.T, url string, body []byte) (InferResponse, time.Duration) {
	t.Helper()
	start := time.Now()
	code, raw := postJSON(t, url+"/v1/infer", body)
	took := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("infer: HTTP %d: %s", code, raw)
	}
	var resp InferResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp, took
}

// slowLinger is a Linger no test could mistake for scheduling noise: a
// request that waited for it shows a queue_ms ten times over quick.
const (
	slowLinger = 200 * time.Millisecond
	quickMs    = 20.0
)

func slowLingerServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(testNet(4))
	cfg.Linger = slowLinger
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestServeLoneClientNeverLingers is the end-to-end form of the policy: a
// sequential client never has a partner, so none of its requests may be
// held, whatever Linger says.
func TestServeLoneClientNeverLingers(t *testing.T) {
	s, ts := slowLingerServer(t)
	body := inferBody(t, 1, 0)
	for i := 0; i < 10; i++ {
		if resp, _ := inferOnce(t, ts.URL, body); resp.QueueMs >= quickMs {
			t.Fatalf("request %d queued %.1f ms on an idle server (Linger %v)", i, resp.QueueMs, slowLinger)
		}
	}
	if st := s.Stats(); st.LingerExpired != 0 {
		t.Errorf("%d batches ran into the Linger bound with one sequential client", st.LingerExpired)
	}
}

// TestServeRefusedPartnerDoesNotHoldBatch sends every good request beside
// a body that fails validation only at its last byte: whenever the batcher
// finds that one arriving, the refusal has to release it.
func TestServeRefusedPartnerDoesNotHoldBatch(t *testing.T) {
	s, ts := slowLingerServer(t)
	good := inferBody(t, 1, 0)
	bad := append(bytes.TrimSuffix(inferBody(t, 8, 0), []byte("}")), "x"...)
	for i := 0; i < 25; i++ {
		done := make(chan int, 1)
		go func() {
			code, _ := postJSON(t, ts.URL+"/v1/infer", bad)
			done <- code
		}()
		resp, _ := inferOnce(t, ts.URL, good)
		if code := <-done; code != http.StatusBadRequest {
			t.Fatalf("malformed body: HTTP %d, want 400", code)
		}
		if resp.QueueMs >= quickMs {
			t.Fatalf("round %d: queued %.1f ms beside a refused body (Linger %v)", i, resp.QueueMs, slowLinger)
		}
	}
	if st := s.Stats(); st.LingerExpired != 0 {
		t.Errorf("%d batches ran into the Linger bound waiting for a refused body", st.LingerExpired)
	}
}

// TestServeTrickledUploadIsNotArriving pins what counts as arriving: a
// client that has sent its headers and half its body is not waited for,
// and is served normally once the rest comes.
func TestServeTrickledUploadIsNotArriving(t *testing.T) {
	s, ts := slowLingerServer(t)
	body := inferBody(t, 1, 0)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(body) / 2
	fmt.Fprintf(conn, "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", len(body))
	if _, err := conn.Write(body[:half]); err != nil {
		t.Fatal(err)
	}

	// The upload is stalled for as long as these take.
	trickling := time.Now()
	for time.Since(trickling) < 300*time.Millisecond {
		resp, took := inferOnce(t, ts.URL, body)
		if resp.QueueMs >= quickMs || took >= slowLinger {
			t.Fatalf("queued %.1f ms, answered in %v beside a stalled upload (Linger %v)", resp.QueueMs, took, slowLinger)
		}
		if n := s.arriving.Load(); n != 0 {
			t.Fatalf("arriving = %d with only half a body in the server", n)
		}
	}

	if _, err := conn.Write(body[half:]); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 64)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(reply)
	if err != nil || !bytes.HasPrefix(reply[:n], []byte("HTTP/1.1 200")) {
		t.Fatalf("trickled request answered %q, %v; want 200", reply[:n], err)
	}
}

// TestServeBatchObservability pins what a running process shows of the
// policy: the two linger counters in the registry and on /statz, how long
// a batch waited on its span, and execution time by batch item count.
func TestServeBatchObservability(t *testing.T) {
	sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: 3, Floor: 1})
	cfg := testConfig(testNet(7))
	cfg.Linger = 30 * time.Millisecond
	cfg.MaxBatch = 8
	cfg.Sampler = sampler
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{KeepInMemory: 64, IDSeed: 3, Sinks: []obs.SpanSink{sampler}})
	s := handBuilt(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three requests queue up, and a fourth is "arriving" for ever: the
	// batch takes the three and waits out its Linger.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, _ := inferOnce(t, ts.URL, inferBody(t, 1, 0)); resp.BatchItems != 3 {
				t.Errorf("executed in a batch of %d, want 3", resp.BatchItems)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); len(s.queue) < 3 || s.arriving.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Read by name, so a renamed counter reads a fresh zero and fails.
	linger := map[string]*obs.Counter{
		"serve.linger_waits":   obs.Default.Counter("serve.linger_waits"),
		"serve.linger_expired": obs.Default.Counter("serve.linger_expired"),
	}
	before := map[string]int64{}
	for name, c := range linger {
		before[name] = c.Value()
	}
	s.arriving.Add(1)
	go s.loop()
	wg.Wait()
	s.arriving.Add(-1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	for name, c := range linger {
		if a := c.Value(); a != before[name]+1 {
			t.Errorf("%s went %d → %d, want one more", name, before[name], a)
		}
	}
	if st := s.Stats(); st.LingerWaits != 1 || st.LingerExpired != 1 {
		t.Errorf("/statz linger_waits %d, linger_expired %d, want 1 and 1", st.LingerWaits, st.LingerExpired)
	}
	if n := obs.Default.QHistVec("serve.items_exec_seconds").With("3").Count(); n == 0 {
		t.Error("serve.items_exec_seconds has no sample under items=3")
	}
	var exposition bytes.Buffer
	if err := obs.Default.WriteOpenMetrics(&exposition); err != nil {
		t.Fatal(err)
	}
	labels := strings.Count(exposition.String(), "\nserve_items_exec_seconds_count{")
	if labels == 0 || labels > cfg.MaxBatch {
		t.Errorf("serve.items_exec_seconds has %d label values on /metrics, want 1 to MaxBatch %d", labels, cfg.MaxBatch)
	}
	found := false
	for _, kt := range sampler.Kept() {
		for _, sp := range kt.Spans {
			if sp.Name != "serve:batch" {
				continue
			}
			found = true
			if ms, ok := sp.Attrs["lingered_ms"].(float64); !ok || ms < 30 || ms > 1000 {
				t.Errorf("serve:batch lingered_ms = %v, want the 30 ms Linger", sp.Attrs["lingered_ms"])
			}
		}
	}
	if !found {
		t.Error("no kept trace carries the serve:batch span")
	}
}

// TestReadBodyLimit pins the body limit at its edge through the pooled
// reader: a body of exactly the limit is read whole, one byte more is an
// error, and the Content-Length header is a hint, not a promise.
func TestReadBodyLimit(t *testing.T) {
	const limit = 3000
	for _, tc := range []struct {
		name     string
		size     int
		declared int64
		ok       bool
	}{
		{"at the limit", limit, limit, true},
		{"one byte over", limit + 1, limit + 1, false},
		{"one byte over, length unknown", limit + 1, -1, false},
		{"length unknown", limit / 2, -1, true},
		{"length understated", limit, 10, true},
		{"length overstated", limit, 1 << 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/infer", &zeros{n: tc.size})
			r.ContentLength = tc.declared
			buf, err := readBody(httptest.NewRecorder(), r, limit)
			defer releaseBody(buf)
			if (err == nil) != tc.ok {
				t.Fatalf("read error %v, want ok: %v", err, tc.ok)
			}
			if tc.ok && buf.Len() != tc.size {
				t.Errorf("read %d bytes of %d", buf.Len(), tc.size)
			}
			if buf.Cap() > 2*bodyPresize {
				t.Errorf("a Content-Length of %d reserved %d bytes for a %d-byte body", tc.declared, buf.Cap(), tc.size)
			}
		})
	}
}

// TestOversizeBodyAnswers413 pins the status of a failed body read at
// both readers, the pooled one behind /v1/infer and obs.ReadBody behind
// /v1/curve: a body over its bound answers 413 Content Too Large, any
// other read error 400. The bound here is a MaxBytesReader the test
// wraps the body in, as a proxy in front of the server would; its error
// reaches the handler through the server's own MaxBytesReader unchanged.
func TestOversizeBodyAnswers413(t *testing.T) {
	s, err := New(testConfig(testNet(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const limit = 3000
	for _, path := range []string{"/v1/infer", "/v1/curve"} {
		for _, tc := range []struct {
			name string
			body func(http.ResponseWriter) io.ReadCloser
			want int
		}{
			{"over the bound", func(w http.ResponseWriter) io.ReadCloser {
				return http.MaxBytesReader(w, io.NopCloser(&zeros{n: limit + 1}), limit)
			}, http.StatusRequestEntityTooLarge},
			{"cut short", func(http.ResponseWriter) io.ReadCloser {
				return io.NopCloser(io.MultiReader(&zeros{n: 10}, iotest.ErrReader(io.ErrUnexpectedEOF)))
			}, http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, path, nil)
			r.Body = tc.body(rec)
			h.ServeHTTP(rec, r)
			if rec.Code != tc.want {
				t.Errorf("%s %s: HTTP %d (%s), want %d", path, tc.name, rec.Code, rec.Body, tc.want)
			}
		}
	}
}

// zeros is a body of n zero bytes that is never in memory at once.
type zeros struct{ n int }

func (z *zeros) Read(p []byte) (int, error) {
	if z.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), z.n)
	clear(p[:n])
	z.n -= n
	return n, nil
}
