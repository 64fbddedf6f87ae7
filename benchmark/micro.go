package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"repro/internal/approx"
	"repro/internal/artifact"
	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/promise"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// The micro-loops time one layer's public function at a time, after the
// traced workload, on the shapes it used. They are fixed-count loops;
// each reports the median of its rounds, so one preempted round does not
// move the number. None of them is gated: they say where to look when an
// end-to-end metric moves.

// loops times micro-loops on a run's host clock.
type loops struct{ host *hostClock }

// perCall runs reps calls of fn per round and returns the median round's
// time per call, in nanoseconds.
func (l loops) perCall(rounds, reps int, fn func()) float64 {
	ns := make([]float64, rounds)
	for r := range ns {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		ns[r] = float64(l.host.norm(t0, time.Since(t0))) / float64(reps)
	}
	return median(ns)
}

// perCallFresh is perCall for kernels that must see a new input on every
// call: prepare runs outside the timed region.
func (l loops) perCallFresh(rounds int, prepare func(), fn func()) float64 {
	ns := make([]float64, rounds)
	for r := range ns {
		prepare()
		t0 := time.Now()
		fn()
		ns[r] = float64(l.host.norm(t0, time.Since(t0)))
	}
	return median(ns)
}

const (
	microRounds  = 9
	microBatch   = 16
	microFloats  = 1 << 20
	microPerturb = 1 << 18
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// hostMicro times the layers every workload stands on — tensorops,
// tensor, graph, parallel, obs, models — on alexnet2's second convolution
// and its classifier, batch 16.
func hostMicro(rc runConfig, res *results) {
	l := loops{rc.host}
	rng := tensor.NewRNG(rc.seed).Split(555)

	// models: the two parts of models.Build, and prepacking a fresh model.
	var m *models.Model
	var ds *datasets.Dataset
	res.set("models.build.ms", l.perCall(3, 1, func() {
		m = models.AlexNet2(rc.seed, benchWidth)
		ds = datasets.CIFARLike(32, 10, rc.seed+1002)
	})/1e6)
	res.set("models.plant_labels.ms", l.perCall(3, 1, func() {
		sink = models.PlantLabels(m, ds, 85.09, 32, rc.seed+2000)
	})/1e6)
	res.set("graph.prepack.ms", l.perCallFresh(3,
		func() { m = models.AlexNet2(rc.seed, benchWidth) },
		func() { sink = m.Graph.PrepackWeights() })/1e6)
	g := m.Graph

	var conv, fc *graph.Node
	convs := 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.OpConv:
			if convs++; convs == 2 {
				conv = n
			}
		case graph.OpMatMul:
			fc = n
		}
	}
	ci := conv.Weight.Dim(1)
	ep := tensorops.Epilogue{Bias: conv.Bias, Act: tensorops.ActTanh}
	var x *tensor.Tensor
	fresh := func() {
		x = tensor.New(microBatch, ci, m.H, m.W)
		rng.FillNormal(x, 0, 1)
	}
	convLoop := func(name string, prepare func(), fn func()) {
		fn() // fill whatever the kernel keeps across calls (sampled filters, panels)
		res.set(name, l.perCallFresh(microRounds, prepare, fn)/1e6)
	}
	fresh()
	convLoop("tensorops.conv_exact_fresh.ms", fresh, func() { sink = tensorops.Conv2DFused(x, conv.Weight, conv.Conv, tensorops.FP32, ep) })
	convLoop("tensorops.conv_fp16_fresh.ms", fresh, func() { sink = tensorops.Conv2DFused(x, conv.Weight, conv.Conv, tensorops.FP16, ep) })
	convLoop("tensorops.conv_samp50_fresh.ms", fresh, func() {
		sink = tensorops.Conv2DFilterSamplingFused(x, conv.Weight, conv.Conv, 2, 0, tensorops.FP32, ep)
	})
	convLoop("tensorops.conv_perf50_fresh.ms", fresh, func() {
		sink = tensorops.Conv2DPerforated(x, conv.Weight, conv.Conv, tensorops.PerfRows, 2, 0, tensorops.FP32)
	})
	// The same calls on one input the pack cache may keep, the way tuning
	// re-executes over its calibration set.
	fresh()
	x.MarkCacheable()
	keep := func() {}
	convLoop("tensorops.conv_exact_cached.ms", keep, func() { sink = tensorops.Conv2DFused(x, conv.Weight, conv.Conv, tensorops.FP32, ep) })
	convLoop("tensorops.conv_fp16_cached.ms", keep, func() { sink = tensorops.Conv2DFused(x, conv.Weight, conv.Conv, tensorops.FP16, ep) })
	x.InvalidateCache()

	fcIn := tensor.New(microBatch, fc.Weight.Dim(0))
	rng.FillNormal(fcIn, 0, 1)
	fcEp := tensorops.Epilogue{Bias: fc.Bias}
	res.set("tensorops.matmul_fused.ms", l.perCall(microRounds, 20, func() {
		sink = tensorops.MatMulFused(fcIn, fc.Weight, tensorops.FP32, fcEp)
	})/1e6)
	a, b, c := make([]float32, 256*256), make([]float32, 256*256), make([]float32, 256*256)
	for i := range a {
		a[i], b[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	res.set("tensorops.gemm_256.ms", l.perCall(microRounds, 2, func() { tensorops.Gemm(a, b, c, 256, 256, 256) })/1e6)

	src, dst := make([]float32, microFloats), make([]float32, microFloats)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	ns := l.perCall(microRounds, 1, func() { tensor.QuantizeFP16Slice(dst, src) })
	res.set("tensor.fp16_quantize.mb_per_s", 4*microFloats/1e6/(ns/1e9))

	// graph: suffix re-execution from the middle approximable op against a
	// full execution, and the batcher's assemble/split of eight items.
	in := tensor.New(m.InputShape(microBatch).Dims()...)
	rng.FillNormal(in, 0, 1)
	ops := g.ApproxOps()
	base := g.ExecuteAll(in, nil, graph.ExecOptions{})
	full := l.perCall(microRounds, 1, func() { sink = g.Execute(in, nil, graph.ExecOptions{}) })
	from := l.perCall(microRounds, 1, func() { sink = g.ExecuteFrom(base, ops[len(ops)/2], nil, graph.ExecOptions{}) })
	res.set("graph.execute_from.share", from/full)
	items := make([]*tensor.Tensor, 8)
	for i := range items {
		items[i] = tensor.New(1, m.C, m.H, m.W)
	}
	outs := tensor.New(len(items), m.Classes)
	res.set("graph.concat_split.us", l.perCall(microRounds, 200, func() {
		_, sizes, err := graph.ConcatBatch(items)
		if err == nil {
			sink, _ = graph.SplitBatch(outs, sizes)
		}
	})/1e3)

	// The fixed per-operation taxes.
	res.set("parallel.for_chunked.dispatch_us", l.perCall(microRounds, 2000, func() {
		parallel.ForChunked(4*nproc(), func(lo, hi int) {})
	})/1e3)
	tr := obs.NewTracer(obs.TracerOptions{KeepInMemory: -1})
	res.set("obs.span.start_end_ns", l.perCall(microRounds, 20000, func() {
		sp := tr.Start("bench:micro")
		sp.End()
	}))
	h := obs.NewQHist()
	res.set("obs.qhist.observe_ns", l.perCall(microRounds, 100000, func() { h.Observe(0.0123) }))
}

// tuneMicro times the layers only tuning touches — predictor, autotuner,
// pareto, qos, device, promise, artifact — over the profiles and curves
// the last pass produced, on seeded random configurations.
func tuneMicro(rc runConfig, p *tunePass, res *results) {
	l := loops{rc.host}
	rng := tensor.NewRNG(rc.seed).Split(556)
	prog := p.prog
	profiles := p.pred.Profiles
	pol := core.KnobPolicy{AllowFP16: true}
	prob := autotuner.Problem{Ops: prog.Ops(), Knobs: map[int][]approx.KnobID{}}
	for _, op := range prob.Ops {
		prob.Knobs[op] = core.KnobsFor(prog, op, pol)
	}
	cfgs := make([]approx.Config, 256)
	for i := range cfgs {
		cfgs[i] = approx.Config{}
		for _, op := range prob.Ops {
			ks := prob.Knobs[op]
			cfgs[i][op] = ks[rng.Intn(len(ks))]
		}
	}
	i := 0
	nextCfg := func() approx.Config { i++; return cfgs[i%len(cfgs)] }
	var f float64

	pi2 := predictor.NewQoSPredictor(predictor.Pi2, profiles, nil)
	res.set("predictor.pi2.predict_us", l.perCall(microRounds, 2000, func() { f = pi2.Predict(nextCfg()) })/1e3)
	if profiles.SupportsPi1() {
		pi1 := predictor.NewQoSPredictor(predictor.Pi1, profiles, func(out *tensor.Tensor) float64 { return prog.Score(core.Calib, out) })
		res.set("predictor.pi1.predict_us", l.perCall(microRounds, 50, func() { f = pi1.Predict(nextCfg()) })/1e3)
	}
	perf := predictor.NewPerfPredictor(prog.Costs())
	res.set("predictor.perf.predict_ns", l.perCall(microRounds, 5000, func() { f = perf.Predict(nextCfg()) }))
	shards := []*predictor.Profiles{profiles, profiles, profiles, profiles}
	res.set("predictor.merge.ms", l.perCall(microRounds, 1, func() { sink = predictor.Merge(shards) })/1e6)

	const iters = 2000
	res.set("autotuner.next_report.us", l.perCall(5, 1, func() {
		t := autotuner.New(prob, autotuner.Options{MaxIters: iters, StallLimit: iters, QoSMin: p.qosMin, Seed: rc.seed})
		for !t.Done() {
			cfg := t.Next()
			t.Report(cfg, autotuner.Feedback{QoS: pi2.Predict(cfg), Perf: perf.Predict(cfg)})
		}
	})/iters/1e3)

	pts := make([]pareto.Point, 2000)
	for j := range pts {
		pts[j] = pareto.Point{QoS: 80 + 10*rng.Float64(), Perf: 1 + rng.Float64()}
	}
	res.set("pareto.relaxed_set_2k.ms", l.perCall(microRounds, 1, func() { sink = pareto.RelaxedSet(pts, 0.05) })/1e6)
	if data, err := p.pred.Curve.Marshal(); err == nil {
		res.set("pareto.curve.unmarshal_us", l.perCall(microRounds, 20, func() { sink, _ = pareto.UnmarshalCurve(data) })/1e3)
	}
	baseOut := prog.BaselineOut(core.Calib)
	res.set("qos.accuracy.score_us", l.perCall(microRounds, 2000, func() { f = prog.Score(core.Calib, baseOut) })/1e3)
	dev := device.NewTX2GPU()
	costs := prog.Costs()
	res.set("device.time.ns", l.perCall(microRounds, 5000, func() { f = dev.Time(costs, nextCfg()) }))
	noisy := tensor.New(microPerturb)
	ns := l.perCall(microRounds, 1, func() { promise.Perturb(noisy, 4, rng) })
	res.set("promise.perturb.mb_per_s", 4*microPerturb/1e6/(ns/1e9))

	// A shippable bundle: the predictive curve as the FP16 slot, its
	// FP32-only points as the universal fallback.
	var fp32 []pareto.Point
	for _, pt := range p.pred.Curve.Points {
		ok := true
		for _, kid := range pt.Config {
			ok = ok && approx.MustLookup(kid).Prec == tensorops.FP32
		}
		if ok {
			fp32 = append(fp32, pt)
		}
	}
	if bundle, err := artifact.New(prog.Name(), pareto.NewRelaxedCurve(prog.Name(), p.pred.Curve.BaselineQoS, fp32), p.pred.Curve); err == nil {
		if data, err := bundle.Marshal(); err == nil {
			res.set("artifact.load.us", l.perCall(microRounds, 20, func() { sink, _ = artifact.Load(data) })/1e3)
		}
	}
	sink = f
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// directHandler calls the server's handler in-process n times with one
// reused body, returning the per-request times (ms) and the allocations
// and bytes per request the whole process made meanwhile (handler,
// batcher and tuner together — the request path).
func directHandler(host *hostClock, s *served, n int) (ms []float64, allocs, bytesPer float64) {
	h := s.srv.Handler()
	body := s.bodies[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		if err != nil {
			continue
		}
		w := &discardWriter{header: http.Header{}}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		ms = append(ms, host.normMs(t0, time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	return ms, float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// serveMicro times the serving layer's parts without the network: the
// handler called directly, JSON of one request and one response, request
// tracing on against off, and the runtime tuner's per-batch bookkeeping.
func serveMicro(rc runConfig, s *served, res *results) {
	l := loops{rc.host}
	n := scaled(200, rc.frac, 20)
	ms, allocs, bytesPer := directHandler(rc.host, s, n)
	res.set("serve.handler.direct_p50_ms", median(ms))
	res.set("serve.handler.allocs_per_req", allocs)
	res.set("serve.handler.bytes_per_req", bytesPer)
	if plain, err := startServer(s.model.Graph.Name, rc.seed, false); err == nil {
		directHandler(rc.host, plain, n/4) // warm
		off, _, _ := directHandler(rc.host, plain, n)
		plain.stop()
		res.set("serve.trace.overhead_share", mean(ms)/mean(off)-1)
	}

	var req serve.InferRequest
	res.set("serve.json.decode_us", l.perCall(microRounds, 50, func() { _ = json.Unmarshal(s.bodies[0], &req) })/1e3)
	resp := serve.InferResponse{Output: serve.TensorJSON{Dims: []int{1, s.model.Classes}, Data: make([]float32, s.model.Classes)},
		Config: "FP16:4", ConfigIndex: 1, BatchItems: 2, QueueMs: 2.25, ExecMs: 1.125}
	res.set("serve.json.encode_us", l.perCall(microRounds, 200, func() { sink, _ = json.Marshal(resp) })/1e3)

	if rt, err := core.NewRuntimeTuner(s.curve, core.PolicyEnforce, serveSLO.Seconds()/2, serve.DefaultWindow, rc.seed); err == nil {
		res.set("core.runtime.acquire_record_ns", l.perCall(microRounds, 20000, func() {
			_, idx := rt.Acquire()
			rt.RecordInvocationAt(idx, 0.01)
		}))
		rt.Close()
	}
}
