package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The highest percentile quoted must have at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n           int
		limit, want float64
	}{
		{12000, 0.99, 0.99}, // 120 beyond
		{12000, 0.95, 0.95}, // capped by the caller
		{999, 0.99, 0.95},   // 9.99 beyond p99
		{360, 0.95, 0.95},   // 18 beyond
		{180, 0.95, 0.90},   // 9 beyond p95, 18 beyond p90
		{20, 0.99, 0.50},
		{3, 0.99, 0.50},
	} {
		if got := supportedTail(c.n, c.limit); got != c.want {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

// Self time is the span minus the union of its children, so two program
// runs overlapping under one tuning span are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "tune", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "run", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "run", Start: 90, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans)
	if lt := got["tune"]; lt.Count != 1 || lt.Total != 100 || lt.Self != 40 {
		t.Errorf("tune = %+v, want count 1 total 100 self 40", lt)
	}
	if lt := got["run"]; lt.Count != 4 || lt.Total != 90 || lt.Self != 90 {
		t.Errorf("run = %+v, want count 4 total 90 self 90", lt)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	sp := r.start("x", span{}, 1)
	sp.end()
	r.add("y", sp, 1, 0, time.Second)
	rec := newRecorder()
	a := rec.start("a", span{}, 7)
	b := rec.start("b", a, 7)
	b.end()
	a.end()
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End {
		t.Errorf("parent ended before child: %+v", rec.spans)
	}
}

// The arrival schedule is a function of the seed alone.
func TestPoissonScheduleDeterministic(t *testing.T) {
	rates := []float64{40, 80}
	step := 2 * time.Second
	a := poissonSchedule(rates, step, serveBodies, tensor.NewRNG(5).Split(99))
	b := poissonSchedule(rates, step, serveBodies, tensor.NewRNG(5).Split(99))
	c := poissonSchedule(rates, step, serveBodies, tensor.NewRNG(6).Split(99))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	perStep := make([]int, len(rates))
	for i, ar := range a {
		lo, hi := time.Duration(ar.step)*step, time.Duration(ar.step+1)*step
		if ar.due < lo || ar.due >= hi {
			t.Fatalf("arrival %d due %v outside its step [%v,%v)", i, ar.due, lo, hi)
		}
		if i > 0 && ar.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		perStep[ar.step]++
	}
	for s, n := range perStep {
		want := rates[s] * step.Seconds()
		if float64(n) < want/2 || float64(n) > 2*want {
			t.Errorf("step %d has %d arrivals, want about %v", s, n, want)
		}
	}
}

func TestStepReports(t *testing.T) {
	t0 := time.Now()
	sched := []arrival{{step: 0}, {step: 0}, {step: 0}, {step: 1}}
	replies := []reply{
		{status: 200, due: t0, sent: t0.Add(time.Millisecond), latency: 10 * time.Millisecond, slow: 1},
		{status: 200, due: t0, sent: t0, latency: 2 * serveSLO, slow: 1},
		{status: 429},
		{status: -1},
	}
	sr := stepReports([]float64{40, 80}, sched, replies)
	if s := sr[0]; s.due != 3 || s.good != 1 || s.failed != 1 || s.backlog != 0 || len(s.latMs) != 2 {
		t.Errorf("step 0 = %+v", s)
	}
	if s := sr[1]; s.due != 1 || s.backlog != 1 || s.sustainable() {
		t.Errorf("step 1 = %+v", s)
	}
}

// On the host clock a reply's linger wait stays as it is and the rest is
// divided by the host's slowness.
func TestReplyHostClockKeepsTimerWaits(t *testing.T) {
	r := reply{latency: 10 * time.Millisecond, slow: 2}
	r.resp.QueueMs = 5 // 2 ms of linger, 3 ms behind another batch
	if got := r.ms(); got != 2+8.0/2 {
		t.Errorf("ms = %v, want 6", got)
	}
	if got := r.queueMs(); got != 2+3.0/2 {
		t.Errorf("queueMs = %v, want 3.5", got)
	}
	r.resp.QueueMs = 0.5 // joined a lingering batch late
	if got := r.ms(); got != 0.5+9.5/2 {
		t.Errorf("ms = %v, want 5.25", got)
	}
}

// Wrapping a program in the timing decorator must not change what the
// tuners do with it: every optional interface they look for is forwarded,
// and the three curves come out byte-identical.
func TestTimedProgramIsTransparent(t *testing.T) {
	var _ tunable = (*timedProgram)(nil)
	var _ tunable = (*core.GraphProgram)(nil)

	tune := func(wrap bool) [3]string {
		b, err := models.Build("lenet", models.Scale{Images: 16, Width: benchWidth, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		calib, test := b.Dataset.Split()
		gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
			qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
		if err != nil {
			t.Fatal(err)
		}
		gp.CalibMetricFor = func(lo, hi int) qos.Metric { return qos.Accuracy{Labels: calib.Labels[lo:hi]} }
		var p core.Program = gp
		var tp *timedProgram
		if wrap {
			tp = newTimedProgram(gp, newRecorder(), 1)
			p = tp
		}
		o := core.Options{QoSMin: gp.Score(core.Calib, gp.BaselineOut(core.Calib)) - 3, Model: predictor.Pi2,
			NCalibrate: 6, MaxIters: 300, StallLimit: 150, MaxConfigs: 16, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3}
		pred, err := core.PredictiveTune(p, o)
		if err != nil {
			t.Fatal(err)
		}
		eo := o
		eo.MaxIters = 24
		emp, err := core.EmpiricalTune(p, eo)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := core.InstallTune(p, pred.Profiles, core.InstallOptions{Options: o, Device: device.NewTX2GPU(), Objective: core.MinimizeEnergy, NEdge: 2})
		if err != nil {
			t.Fatal(err)
		}
		var d [3]string
		for i, c := range []interface{ Marshal() ([]byte, error) }{pred.Curve, emp.Curve, inst.Curve} {
			raw, err := c.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			d[i] = string(raw)
		}
		if wrap {
			runs := 0
			for _, s := range tp.rec.spans {
				if s.Name == "program.run" {
					runs++
				}
			}
			if runs == 0 {
				t.Error("the decorator recorded no program run")
			}
			sh, err := tp.Shard(0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := sh.(*timedProgram); !ok || w.rec != tp.rec || w.parent != tp.parent {
				t.Errorf("a shard must be wrapped and record under the same span, got %T", sh)
			}
		}
		return d
	}
	bare, wrapped := tune(false), tune(true)
	for i, name := range tunePhases {
		if bare[i] != wrapped[i] {
			t.Errorf("%s curve differs through the decorator", name)
		}
	}
}

// A corrupted digest must fail the run.
func TestCorruptExpectedDigestFails(t *testing.T) {
	cells := []execCell{{model: "lenet", config: "exact", batch: 1, digest: "aa", repeatDigest: "aa"}}
	good := &expectedFile{Exec: map[string]string{"lenet/exact/b1": "aa"}}
	bad := &expectedFile{Exec: map[string]string{"lenet/exact/b1": "ab"}}
	res := newResults()
	compareExecDigests(cells, good, true, res)
	if res.failed != 0 {
		t.Fatalf("matching digest failed: %v", res.notes)
	}
	compareExecDigests(cells, bad, true, res)
	if res.failed != 1 {
		t.Fatalf("corrupt digest gave %d failures, want 1", res.failed)
	}
	compareExecDigests(cells, bad, false, res)
	if res.failed != 1 {
		t.Fatal("an unpinned seed must not be compared with expected.json")
	}
	cells[0].repeatDigest = "ac"
	compareExecDigests(cells, good, false, res)
	if res.failed != 2 {
		t.Fatal("a non-deterministic output must fail on any seed")
	}
}

// BENCHMARK.json and the catalogue in metrics.go name the same metrics,
// units, directions and bounds, and the same workloads.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue (%d in JSON, %d in code)", len(m.PerLayer), len(perLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in JSON, %q in code", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 || d.Unit == "" {
			t.Errorf("metric %q unit %q breaks the manifest's limits", d.Name, d.Unit)
		}
	}
}

// The smoke scale runs every workload, traced, in seconds, and checks
// that each named metric comes out once with its unit: every end-to-end
// metric non-zero, every per-layer metric present.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	dir := t.TempDir()
	touched := map[string]bool{}
	for _, w := range workloads {
		rc := runConfig{seed: 2, frac: smokeFrac, smoke: true, trace: !raceOn, outDir: dir, host: startHostClock()}
		res := newResults()
		start := time.Now()
		if err := w.run(rc, res); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rc.host.stopAndWait()
		finish(rc, res, start)
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.notes)
		}
		e2e, err := res.emit(false)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if len(e2e) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(e2e), len(endToEnd))
		}
		if raceOn {
			continue
		}
		layers, err := res.emit(true)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range perLayer {
			mv, ok := layers[d.Name]
			if !ok || mv.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or unit %q, want %q", w.name, d.Name, mv.Unit, d.Unit)
			}
			if _, set := res.values[d.Name]; set {
				touched[d.Name] = true
			}
		}
		if _, err := os.Stat(spanPath(rc, w.name)); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	// Across the four workloads every per-layer metric is measured
	// somewhere; serve_p99_ms needs more samples than the smoke scale has.
	for _, d := range perLayer {
		if !raceOn && !touched[d.Name] && d.Name != "serve_p99_ms" {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
}
