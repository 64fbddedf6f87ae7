package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of each path sees. Every workload reports every
// one of them, none is ever 0, and each has a regression bound. What the
// operation is differs per workload (README.md has the table):
//
//	exec_fresh          one graph.Execute at batch 1; throughput at batch 16
//	tune_cached         one cold predictive+empirical+install pass; configurations examined per second
//	serve_small_closed  one /v1/infer request; good responses per second
//	serve_heavy_open    one /v1/infer request at the 20 rps step, from its due time; answers within the SLO per second over the steps up to 80 rps
//
// latency_p95_ms was one of them and is now the first per-layer row: on
// serve_heavy_open no estimate of it (pooled, median of windows, at 20, 30
// or 40 rps, raw or on the host clock) spread by less than 0.1 to 0.25
// between runs of the same code on the reference host, and the issue's rule
// for a metric that cannot meet its bound is demotion, not a looser bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"goodput_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is reported by the traced run. A metric whose layer the
// workload never crosses reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{Name: "latency_p95_ms", Unit: "ms", Better: lower},
		// The issue's workload-specific end-to-end rows. The driver wants
		// every end-to-end metric from every workload, so these are
		// carried here under their final names and gated through the
		// generic metrics above, which are computed from the same samples.
		{Name: "exec_b1_ms", Unit: "ms", Better: lower},
		{Name: "exec_items_per_s", Unit: "items/s", Better: higher},
		{Name: "tune_predictive_s", Unit: "s", Better: lower},
		{Name: "tune_empirical_s", Unit: "s", Better: lower},
		{Name: "tune_install_s", Unit: "s", Better: lower},
		{Name: "serve_rps", Unit: "req/s", Better: higher},
		{Name: "serve_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve_p95_ms", Unit: "ms", Better: lower},
		{Name: "serve_p99_ms", Unit: "ms", Better: lower},
		{Name: "serve_slo_share", Unit: "share", Better: higher},
		{Name: "serve_max_rate_rps", Unit: "req/s", Better: higher},
		{Name: "fail_share", Unit: "share", Better: lower},

		{Name: "tensorops.gemm_256.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.matmul_fused.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_exact_fresh.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_fp16_fresh.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_samp50_fresh.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_perf50_fresh.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_exact_cached.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.conv_fp16_cached.ms", Unit: "ms", Better: lower},
		{Name: "tensorops.pack_cache.hit_share", Unit: "share", Better: higher},
		{Name: "tensorops.pack_cache.evictions", Unit: "count", Better: lower},
		{Name: "tensorops.pack_cache.bytes", Unit: "bytes", Better: lower},
		{Name: "tensor.pool.hit_share", Unit: "share", Better: higher},
		{Name: "tensor.fp16_quantize.mb_per_s", Unit: "MB/s", Better: higher},
	}
	for _, m := range execModels {
		d = append(d,
			metricDef{Name: "graph.execute." + m + ".b1_ms", Unit: "ms", Better: lower},
			metricDef{Name: "graph.execute." + m + ".b16_items_per_s", Unit: "items/s", Better: higher})
	}
	for _, kind := range []string{"real", "model"} {
		for _, c := range execConfigs[1:] {
			d = append(d, metricDef{Name: "exec." + kind + "_speedup." + c, Unit: "x", Better: higher})
		}
	}
	return append(d, []metricDef{
		{Name: "graph.execute_from.share", Unit: "share", Better: lower},
		{Name: "graph.concat_split.us", Unit: "us", Better: lower},
		{Name: "graph.prepack.ms", Unit: "ms", Better: lower},

		{Name: "core.tune.profile_s", Unit: "s", Better: lower},
		{Name: "core.tune.calibrate_s", Unit: "s", Better: lower},
		{Name: "core.tune.search_s", Unit: "s", Better: lower},
		{Name: "core.tune.validate_s", Unit: "s", Better: lower},
		{Name: "core.tune.program_run_s", Unit: "s", Better: lower},
		{Name: "core.tune.program_runs", Unit: "count", Better: lower},
		{Name: "core.tune.score_s", Unit: "s", Better: lower},
		{Name: "core.tune.self_s", Unit: "s", Better: lower},
		{Name: "core.empirical.evals_per_s", Unit: "1/s", Better: higher},
		{Name: "core.install.edge_profile_s", Unit: "s", Better: lower},
		{Name: "core.install.server_tune_s", Unit: "s", Better: lower},
		{Name: "core.runtime.acquire_record_ns", Unit: "ns", Better: lower},

		{Name: "predictor.pi2.predict_us", Unit: "us", Better: lower},
		{Name: "predictor.pi1.predict_us", Unit: "us", Better: lower},
		{Name: "predictor.perf.predict_ns", Unit: "ns", Better: lower},
		{Name: "predictor.merge.ms", Unit: "ms", Better: lower},
		{Name: "autotuner.next_report.us", Unit: "us", Better: lower},
		{Name: "pareto.relaxed_set_2k.ms", Unit: "ms", Better: lower},
		{Name: "pareto.curve.unmarshal_us", Unit: "us", Better: lower},
		{Name: "qos.accuracy.score_us", Unit: "us", Better: lower},
		{Name: "device.time.ns", Unit: "ns", Better: lower},
		{Name: "promise.perturb.mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "artifact.load.us", Unit: "us", Better: lower},

		{Name: "parallel.for_chunked.dispatch_us", Unit: "us", Better: lower},
		{Name: "obs.span.start_end_ns", Unit: "ns", Better: lower},
		{Name: "obs.qhist.observe_ns", Unit: "ns", Better: lower},
		{Name: "models.build.ms", Unit: "ms", Better: lower},
		{Name: "models.plant_labels.ms", Unit: "ms", Better: lower},

		{Name: "serve.queue.p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.queue.p95_ms", Unit: "ms", Better: lower},
		{Name: "serve.exec.p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.exec.p95_ms", Unit: "ms", Better: lower},
		{Name: "serve.overhead.p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.overhead.p95_ms", Unit: "ms", Better: lower},
		{Name: "serve.batch.items_mean", Unit: "count", Better: higher},
		{Name: "serve.batches", Unit: "count", Better: lower},
		{Name: "serve.rejected", Unit: "count", Better: lower},
		{Name: "serve.expired", Unit: "count", Better: lower},
		{Name: "serve.tuner.switches", Unit: "count", Better: lower},
		{Name: "serve.tuner.config_index_mean", Unit: "count", Better: lower},
		{Name: "serve.handler.direct_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.handler.allocs_per_req", Unit: "count", Better: lower},
		{Name: "serve.handler.bytes_per_req", Unit: "bytes", Better: lower},
		{Name: "serve.json.decode_us", Unit: "us", Better: lower},
		{Name: "serve.json.encode_us", Unit: "us", Better: lower},
		{Name: "serve.trace.overhead_share", Unit: "share", Better: lower},
		{Name: "serve.gen.lag_p95_ms", Unit: "ms", Better: lower},
		{Name: "serve.backlog.end", Unit: "count", Better: lower},
		{Name: "serve.overload.slo_share", Unit: "share", Better: higher},
		{Name: "serve.overload.answers_per_s", Unit: "1/s", Better: higher},

		{Name: "trace.overhead_share", Unit: "share", Better: lower},
		// How slow the host ran the benchmark's probe during the run, over
		// the reference host at its best (hostclock.go): 1.25 is the slow
		// regime. Reported times already have it divided out.
		{Name: "host.slowness", Unit: "x", Better: lower},
	}...)
}

// units maps every known metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// results collects what one run measured.
type results struct {
	values    map[string]float64
	attempted int
	failed    int
	setupS    []float64      // one entry per set-up performed
	counts    map[string]int // the work done, by count
	notes     []string
}

func newResults() *results {
	return &results{values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric; an unknown name is a bug in the benchmark.
func (r *results) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.values[name] = v
}

// fail counts one failed, refused or mismatched operation.
func (r *results) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metricValue is the wire form of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the metrics the run must report. End-to-end metrics must
// all be present and non-zero; a per-layer metric the workload did not
// touch reads 0.
func (r *results) emit(trace bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if trace {
		for _, d := range perLayer {
			out[d.Name] = metricValue{r.values[d.Name], d.Unit}
		}
		return out, nil
	}
	for _, d := range endToEnd {
		v, ok := r.values[d.Name]
		if !ok || !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (value %v)", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// sortedNames lists the measured metric names.
func (r *results) sortedNames() []string {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
