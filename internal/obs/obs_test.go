package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// install swaps in a tracer for the test and restores the previous one.
func install(t *testing.T, tr *Tracer) {
	t.Helper()
	prev := Install(tr)
	t.Cleanup(func() { Install(prev) })
}

func TestSpanTreeRoundTripsThroughJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerOptions{Writer: &buf})
	install(t, tr)

	root := Start("phase:devtime").With("benchmark", "lenet")
	profile := root.Child("profile")
	op := profile.Child("profile-op").With("op", 3)
	op.End()
	profile.End()
	search := root.Child("search").With("iters", 400)
	search.End()
	root.End()

	records, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4", len(records))
	}
	roots := BuildTree(records)
	if len(roots) != 1 || roots[0].Name != "phase:devtime" {
		t.Fatalf("bad roots: %+v", roots)
	}
	if got := roots[0].Attrs["benchmark"]; got != "lenet" {
		t.Fatalf("root attr = %v", got)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "profile" || kids[1].Name != "search" {
		t.Fatalf("children out of order: %+v", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "profile-op" {
		t.Fatalf("nested child missing: %+v", kids[0].Children)
	}
	// JSON numbers decode as float64; attributes survive with their value.
	if got := kids[0].Children[0].Attrs["op"].(float64); got != 3 {
		t.Fatalf("op attr = %v", got)
	}
	for _, r := range records {
		if r.Dur < 0 || r.End < r.Start {
			t.Fatalf("negative duration: %+v", r)
		}
	}
	if !strings.Contains(Summarize(records), "  profile") {
		t.Fatalf("summary missing indented child:\n%s", Summarize(records))
	}
}

func TestNoopPathAllocatesZero(t *testing.T) {
	Install(nil)
	c := NewCounter("test.noop_counter")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Start("root")
		child := sp.Child("child")
		child.End()
		sp.End()
		c.Inc()
		_ = sp.AcquireDetail()
	})
	if allocs != 0 {
		t.Fatalf("no-op path allocates %v per op, want 0", allocs)
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerOptions{Writer: &buf, KeepInMemory: 100000})
	install(t, tr)
	reg := NewRegistry()
	ctr := reg.Counter("test.c")
	g := reg.Gauge("test.g")
	h := reg.QHistogram("test.h")
	vec := reg.CounterVec("test.v")

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := Start("worker").With("w", w)
				c := sp.Child("step")
				ctr.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 100))
				vec.With(fmt.Sprintf("w%d", w%2)).Inc()
				c.End()
				sp.End()
				_ = reg.readAll()
			}
		}(w)
	}
	wg.Wait()

	if got := ctr.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	records, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(records) != 2*workers*iters {
		t.Fatalf("got %d spans, want %d", len(records), 2*workers*iters)
	}
	if w0, w1 := vec.With("w0").Value(), vec.With("w1").Value(); w0+w1 != workers*iters {
		t.Fatalf("vec counts w0 %d + w1 %d, want %d", w0, w1, workers*iters)
	}
}

// TestRegistryRefusesMalformedNames pins the name check where a name is
// decided: every constructor panics on a name that is not dotted
// snake_case, so a name passed to a registry held in a variable, which the
// source rules cannot tell from any other receiver, is still checked.
func TestRegistryRefusesMalformedNames(t *testing.T) {
	reg := NewRegistry()
	ctors := map[string]func(string){
		"Counter":    func(n string) { reg.Counter(n) },
		"Gauge":      func(n string) { reg.Gauge(n) },
		"CounterVec": func(n string) { reg.CounterVec(n) },
		"GaugeVec":   func(n string) { reg.GaugeVec(n) },
		"QHistogram": func(n string) { reg.QHistogram(n) },
		"QHistVec":   func(n string) { reg.QHistVec(n) },
	}
	for ctor, mk := range ctors {
		for _, bad := range []string{"latency-seconds", "requests", "Tuner.QueueDepth", "tuner.", ""} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) registered a malformed name", ctor, bad)
					}
				}()
				mk(bad)
			}()
		}
		good := "tuner." + strings.ToLower(ctor)
		mk(good)
		mk(good) // the hit path
	}
	if n := len(reg.readAll()); n != len(ctors) {
		t.Errorf("registry holds %d metrics, want the %d well-formed ones", n, len(ctors))
	}
}

func TestGraphDetailBudget(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	tr.detailBudget.Store(2)
	sp := tr.Start("root")
	if !sp.AcquireDetail() || !sp.AcquireDetail() {
		t.Fatal("first two acquisitions should succeed")
	}
	if sp.AcquireDetail() {
		t.Fatal("budget should be exhausted")
	}
	sp.End()
}

func TestTracerRetentionBound(t *testing.T) {
	tr := NewTracer(TracerOptions{KeepInMemory: 3})
	for i := 0; i < 10; i++ {
		tr.Start("s").End()
	}
	if got := len(tr.Records()); got != 3 {
		t.Fatalf("retained %d, want 3", got)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, Normal)
	l.Infof("info %d\n", 1)
	l.Verbosef("verbose\n")
	l.Errorf("err\n")
	if got := buf.String(); got != "info 1\nerr\n" {
		t.Fatalf("normal output = %q", got)
	}
	buf.Reset()
	l.SetLevel(Quiet)
	l.Infof("info\n")
	l.Errorf("err\n")
	if got := buf.String(); got != "err\n" {
		t.Fatalf("quiet output = %q", got)
	}
	buf.Reset()
	l.SetLevel(Verbose)
	l.Verbosef("verbose\n")
	if got := buf.String(); got != "verbose\n" {
		t.Fatalf("verbose output = %q", got)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("graph.kernels").Add(42)
	tr := NewTracer(TracerOptions{})
	tr.Start("phase:devtime").End()
	srv, err := ServeMetrics("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if metrics := get("/metrics"); !strings.Contains(metrics, "\ngraph_kernels_total 42\n") {
		t.Fatalf("metrics = %q, want graph_kernels_total 42", metrics)
	}
	if !strings.Contains(get("/trace"), "phase:devtime") {
		t.Fatal("trace endpoint missing span")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("pprof index not served")
	}
}
