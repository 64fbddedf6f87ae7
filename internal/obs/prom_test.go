package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// promTestRegistry builds a registry with one metric of every kind and
// fully deterministic contents.
func promTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("runtime.invocations").Add(42)
	reg.Gauge("runtime.required_perf").Set(1.25)
	cv := reg.CounterVec("graph.kernel_invocations_by_knob")
	cv.With("fp16").Add(7)
	cv.With("perf-33%").Add(3)
	gv := reg.GaugeVec("distrib.http_inflight")
	gv.With("/v1/register").Set(1)
	// Dyadic values (i/1024) keep every partial sum exact, so the
	// exposition is bit-identical no matter how the observations split
	// across the histogram's per-P shards.
	h := reg.QHistogram("predictor.calibration_abs_error")
	h.Observe(1.0 / 256)
	h.Observe(1.0 / 16)
	h.Observe(96)
	q := reg.QHistogram("runtime.invocation_seconds")
	exTID, _ := parseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	for i := 1; i <= 100; i++ {
		if i == 50 {
			// One exemplar in the p50 bucket: same counts as a plain
			// Observe, plus the exemplar suffix on that bucket's line.
			q.ObserveExemplar(float64(i)/1024, exTID)
			continue
		}
		q.Observe(float64(i) / 1024)
	}
	qv := reg.QHistVec("distrib.http_latency_seconds")
	lat := qv.With("/v1/curve")
	lat.Observe(0.002)
	lat.Observe(0.004)
	return reg
}

// TestWriteOpenMetricsGolden pins the OpenMetrics exposition — counter
// _total suffixes, quantile histograms as native-bucket histograms,
// exemplars on _bucket lines, # EOF — against
// testdata/openmetrics.golden.
func TestWriteOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/openmetrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("openmetrics exposition drifted from testdata/openmetrics.golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	checkOpenMetricsFormat(t, buf.String())
	if !strings.Contains(buf.String(), `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"}`) {
		t.Error("openmetrics exposition dropped the recorded exemplar")
	}
}

// promValuePat matches one exposition float the writer emits.
const promValuePat = `(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)`

// omLineRe matches one valid OpenMetrics sample or comment line (the
// subset the writer emits), the exemplar suffix (`# {trace_id="..."}
// value`) and the `# EOF` terminator included.
var omLineRe = regexp.MustCompile(`^(# EOF` +
	`|# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
	promValuePat + `( # \{trace_id="[0-9a-f]{32}"\} ` + promValuePat + `)?)$`)

// omExemplarRe captures the sample name of an exemplar-carrying line.
var omExemplarRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)\{.* # \{trace_id=`)

// checkOpenMetricsFormat validates an OpenMetrics exposition: every
// line within the grammar, exemplars only on _bucket/_total samples
// (the only places OpenMetrics allows them), terminated by # EOF.
func checkOpenMetricsFormat(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		t.Fatal("openmetrics exposition does not end with # EOF")
	}
	for _, line := range lines {
		if !omLineRe.MatchString(line) {
			t.Errorf("invalid openmetrics line: %q", line)
		}
		if m := omExemplarRe.FindStringSubmatch(line); m != nil {
			if name := m[1]; !strings.HasSuffix(name, "_bucket") && !strings.HasSuffix(name, "_total") {
				t.Errorf("exemplar on %q; OpenMetrics allows exemplars only on histogram buckets and counters: %q", name, line)
			}
		}
	}
}

// TestWriteOpenMetricsValidFormat validates the exposition of the live
// Default registry (whatever the rest of the test binary populated it
// with) line by line.
func TestWriteOpenMetricsValidFormat(t *testing.T) {
	var buf bytes.Buffer
	NewCounter("obs.prom_format_test").Inc()
	if err := Default.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkOpenMetricsFormat(t, buf.String())
}

// TestMetricsContentNegotiation checks that /metrics has one exposition:
// whatever the query or the Accept header asks for, the answer is
// OpenMetrics 1.0, ending in # EOF.
func TestMetricsContentNegotiation(t *testing.T) {
	NewCounter("obs.negotiation_test").Inc()
	h := MetricsHandler()
	for _, c := range []struct{ format, accept string }{
		{"", ""},
		{"prom", ""},
		{"json", ""},
		{"", "text/plain;version=0.0.4"},
		{"", "application/json"},
		{"", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
	} {
		req := httptest.NewRequest(http.MethodGet, "/metrics?format="+c.format, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text; version=1.0.0") {
			t.Errorf("format %q accept %q: Content-Type %q, want OpenMetrics 1.0.0", c.format, c.accept, ct)
		}
		if body := rec.Body.String(); !strings.HasSuffix(body, "\n# EOF\n") {
			t.Errorf("format %q accept %q: body does not end in # EOF:\n%s", c.format, c.accept, body)
		}
	}
}

// TestConcurrentScrapes serves a live endpoint and hammers /metrics,
// /healthz and /trace while spans, counters and quantile
// histograms are being written — the CI race gate runs this under -race.
func TestConcurrentScrapes(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	prev := Install(tr)
	defer Install(prev)

	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	qh := NewQHistogram("obs.scrape_test_latency")
	ctr := NewCounter("obs.scrape_test_total")
	ctr.Inc() // visible before the first scrape, even if writers lag
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Bounded work with frequent yields: the race gate runs
			// this while other packages saturate the machine, and the
			// scrape server must still get scheduled.
			for i := 0; i < 20000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := Start(fmt.Sprintf("scrape-test-%d", w))
				qh.Observe(float64(i%100) * 1e-4)
				ctr.Inc()
				sp.End()
				if i%64 == 0 {
					time.Sleep(time.Millisecond) // let scrapers make progress
				}
			}
		}(w)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) (string, int) {
		t.Helper()
		resp, err := client.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.StatusCode
	}

	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			iters := 10
			if testing.Short() {
				iters = 3
			}
			for i := 0; i < iters; i++ {
				if body, code := get("/metrics"); code != http.StatusOK {
					t.Errorf("/metrics status %d", code)
				} else if !strings.Contains(body, "obs_scrape_test_total") {
					t.Error("scrape missing obs_scrape_test_total")
				} else if !strings.HasSuffix(body, "\n# EOF\n") {
					t.Error("scrape missing # EOF terminator")
				}
				if _, code := get("/trace"); code != http.StatusOK {
					t.Errorf("/trace status %d", code)
				}
				if body, code := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
					t.Errorf("/healthz = %q (status %d)", body, code)
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()

	// The final scrape must still be format-valid.
	body, _ := get("/metrics")
	checkOpenMetricsFormat(t, body)
}

// TestWriteSummaryTable smoke-tests the end-of-run table renderer over
// every metric kind.
func TestWriteSummaryTable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, promTestRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"metric", "runtime.invocations", "42",
		"graph.kernel_invocations_by_knob{fp16}",
		"runtime.invocation_seconds", "p99=",
		"distrib.http_latency_seconds{/v1/curve}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}
