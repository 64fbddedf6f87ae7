package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

// tune_cached at scale 1: the paper's search bounds (30 K iterations,
// stall 1 K, 50 configurations) on alexnet2 with a 32-image calibration
// set, ΔQoS 3 points, three cold passes. The same kernels as exec_fresh,
// used differently: suffix re-execution over calibration inputs the pack
// cache may keep, candidates evaluated in parallel, and the predictor,
// autotuner, pareto, qos, device and promise code exec_fresh never calls.
const (
	tuneModel = "alexnet2"
	// tuneSeed fixes the tuning problem — model, dataset and search seed —
	// on every run. How long a search runs depends on the QoS landscape
	// (it stops on a stall), so a landscape drawn from --seed would make
	// every seed a different amount of work; and on some landscapes two
	// cold passes ship different curves (predictor.predict2 sums ΔQ in
	// map order, and a last-bit difference is enough to steer the search
	// elsewhere), which would fail the correctness gate through no fault
	// of the change under test. --seed only draws the micro-loops'
	// configurations here.
	tuneSeed      = expectedSeed
	tuneImages    = 32
	tuneDeltaQoS  = 3.0
	tunePasses    = 3
	tuneMaxIters  = 30000
	tuneStall     = 1000
	tuneNCalib    = 20
	tuneMaxCfgs   = 50
	tuneEmpIters  = 120
	tuneEdges     = 4
	tuneMinIters  = 200
	tuneMinEmp    = 8
	tuneSmokeImgs = 16
)

// tuneParams are the counts one pass uses, after scaling.
type tuneParams struct {
	passes, images, maxIters, empIters int
}

func scaleTune(frac float64) tuneParams {
	p := tuneParams{passes: max(1, int(math.Round(tunePasses*frac))), images: tuneImages, maxIters: tuneMaxIters, empIters: tuneEmpIters}
	if frac < 1 {
		// Below the reference scale, shrink the search rather than drop
		// below one pass.
		p.maxIters = max(tuneMinIters, int(tuneMaxIters*frac))
		p.empIters = max(tuneMinEmp, int(tuneEmpIters*frac))
	}
	if frac < 0.5 {
		p.images = tuneSmokeImgs
	}
	return p
}

// tunePass is one cold pass: what it took and what it shipped.
type tunePass struct {
	setupS                            float64
	phaseAt                           [3]time.Time
	phaseTook                         [3]time.Duration
	predictiveS, empiricalS, installS float64 // on the host clock, filled in by settle
	pred, emp                         *core.Result
	inst                              *core.InstallResult
	prog                              *core.GraphProgram
	qosMin                            float64
	timed                             *timedProgram // nil on an untraced pass
	digests                           [3]string
}

var tunePhases = [3]string{"predictive", "empirical", "install"}

// buildTuneProgram is a pass's set-up: a fresh model and dataset, planted
// labels, and the tunable program over the calibration/test split.
func buildTuneProgram(seed int64, images int) (*core.GraphProgram, float64, error) {
	b, err := models.Build(tuneModel, models.Scale{Images: images, Width: benchWidth, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	calib, test := b.Dataset.Split()
	gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
		qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
	if err != nil {
		return nil, 0, err
	}
	gp.CalibMetricFor = func(lo, hi int) qos.Metric { return qos.Accuracy{Labels: calib.Labels[lo:hi]} }
	base := gp.Score(core.Calib, gp.BaselineOut(core.Calib))
	return gp, base - tuneDeltaQoS, nil
}

func curveDigest(c *pareto.Curve) (string, error) {
	b, err := c.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runTunePass builds a program from nothing and tunes it three ways. With
// a recorder the tuners see the program through the timing decorator.
func runTunePass(seed int64, host *hostClock, tp tuneParams, rec *recorder, root span, op int64) (*tunePass, error) {
	t0 := time.Now()
	gp, qosMin, err := buildTuneProgram(seed, tp.images)
	if err != nil {
		return nil, err
	}
	pass := &tunePass{setupS: host.since(t0), prog: gp, qosMin: qosMin}
	var prog core.Program = gp
	if rec != nil {
		pass.timed = newTimedProgram(gp, rec, op)
		prog = pass.timed
	}
	phase := func(i int, run func() error) error {
		sp := rec.start("core."+tunePhases[i]+"_tune", root, op)
		if pass.timed != nil {
			*pass.timed.parent = sp
		}
		pass.phaseAt[i] = time.Now()
		err := run()
		pass.phaseTook[i] = time.Since(pass.phaseAt[i])
		sp.end()
		return err
	}
	opts := core.Options{
		QoSMin:     qosMin,
		Model:      predictor.Pi2,
		NCalibrate: tuneNCalib,
		MaxIters:   tp.maxIters,
		StallLimit: tuneStall,
		MaxConfigs: tuneMaxCfgs,
		Policy:     core.KnobPolicy{AllowFP16: true},
		Seed:       seed,
	}
	if err = phase(0, func() (err error) {
		pass.pred, err = core.PredictiveTune(prog, opts)
		return err
	}); err != nil {
		return nil, err
	}
	empOpts := opts
	empOpts.MaxIters = tp.empIters
	if err = phase(1, func() (err error) {
		pass.emp, err = core.EmpiricalTune(prog, empOpts)
		return err
	}); err != nil {
		return nil, err
	}
	if err = phase(2, func() (err error) {
		pass.inst, err = core.InstallTune(prog, pass.pred.Profiles, core.InstallOptions{
			Options: opts, Device: device.NewTX2GPU(), Objective: core.MinimizeEnergy, NEdge: tuneEdges})
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range []*pareto.Curve{pass.pred.Curve, pass.emp.Curve, pass.inst.Curve} {
		if pass.digests[i], err = curveDigest(c); err != nil {
			return nil, err
		}
	}
	return pass, nil
}

// settle puts the pass's phase times on the host clock. It runs after the
// passes, when the clock has samples on both sides of every phase.
func (p *tunePass) settle(host *hostClock) {
	p.predictiveS = host.norm(p.phaseAt[0], p.phaseTook[0]).Seconds()
	p.empiricalS = host.norm(p.phaseAt[1], p.phaseTook[1]).Seconds()
	p.installS = host.norm(p.phaseAt[2], p.phaseTook[2]).Seconds()
}

// checkTunePass verifies what a pass shipped: the three curves are
// well-formed, and every point of the two software-knob curves, run again
// on the calibration set, still scores above the QoS floor it was shipped
// under. (Install-curve points carry PROMISE noise and were validated per
// edge shard, so a whole-set re-score is not the number they shipped with;
// they are covered by the digests.) It returns the number of checks made.
func checkTunePass(p *tunePass, res *results) int {
	checks := 0
	for i, c := range []*pareto.Curve{p.pred.Curve, p.emp.Curve, p.inst.Curve} {
		checks++
		if errs := core.CheckCurve(c, i == 2); len(errs) > 0 {
			res.fail("%s curve: %v", tunePhases[i], errs[0])
		}
	}
	for i, c := range []*pareto.Curve{p.pred.Curve, p.emp.Curve} {
		for j, pt := range c.Points {
			checks++
			out := p.prog.Run(pt.Config, core.Calib, tensor.NewRNG(int64(j)))
			if q := p.prog.Score(core.Calib, out); q < p.qosMin {
				res.fail("%s curve point %d re-scores %.4g, below its floor %.4g", tunePhases[i], j, q, p.qosMin)
			}
		}
	}
	return checks
}

// runTuneCached is the tune_cached workload.
func runTuneCached(rc runConfig, res *results) error {
	tp := scaleTune(rc.frac)
	res.counts["passes"] = tp.passes
	res.counts["images"] = tp.images
	res.counts["max_iters"] = tp.maxIters
	res.counts["empirical_iters"] = tp.empIters

	var rec *recorder
	var root span
	if rc.trace {
		rec = newRecorder()
		root = rec.start("bench.tune_cached", span{}, 0)
	}
	c0 := readCounters()
	var passes []*tunePass
	for i := 0; i < tp.passes; i++ {
		// On a traced run the first pass stays untraced: it is the
		// reference the traced passes' overhead is measured against.
		r := rec
		if rc.trace && i == 0 && tp.passes > 1 {
			r = nil
		}
		p, err := runTunePass(tuneSeed, rc.host, tp, r, root, int64(i+1))
		if err != nil {
			return err
		}
		passes = append(passes, p)
		res.setupS = append(res.setupS, p.setupS)
	}
	root.end()
	c0.delta(res)
	for _, p := range passes {
		p.settle(rc.host)
	}

	// Correctness: every pass ships the same three curves (cold passes of
	// one seed are deterministic), the expected ones where pinned, and
	// the last pass's curves hold up when run again.
	res.attempted = 3 * len(passes)
	if err := checkTuneDigests(rc, passes, res); err != nil {
		return err
	}
	res.attempted += checkTunePass(passes[len(passes)-1], res)

	var pred, emp, inst, total []float64
	for _, p := range passes {
		pred = append(pred, p.predictiveS)
		emp = append(emp, p.empiricalS)
		inst = append(inst, p.installS)
		total = append(total, p.predictiveS+p.empiricalS+p.installS)
	}
	last := passes[len(passes)-1]
	res.set("tune_predictive_s", median(pred))
	res.set("tune_empirical_s", median(emp))
	res.set("tune_install_s", median(inst))
	res.set("latency_p50_ms", 1e3*median(total))
	// Configurations the three tuners evaluated or predicted, per second
	// of tuning: the search's throughput.
	evaluated := last.pred.Stats.RawConfigs + last.emp.Stats.RawConfigs + last.inst.Stats.RawConfigs
	res.counts["configs_per_pass"] = evaluated
	res.set("goodput_per_s", float64(evaluated)/median(total))

	// The program's own stage times carry no timestamps; they go onto the
	// host clock at their phase's overall rate.
	st := last.pred.Stats
	predRate := last.predictiveS / last.phaseTook[0].Seconds()
	instRate := last.installS / last.phaseTook[2].Seconds()
	res.set("core.tune.profile_s", predRate*st.ProfileTime.Seconds())
	res.set("core.tune.calibrate_s", predRate*st.CalibrateTime.Seconds())
	res.set("core.tune.search_s", predRate*st.SearchTime.Seconds())
	res.set("core.tune.validate_s", predRate*st.ValidateTime.Seconds())
	res.set("core.empirical.evals_per_s", float64(last.emp.Stats.RawConfigs)/last.empiricalS)
	res.set("core.install.edge_profile_s", instRate*last.inst.Stats.EdgeProfileTime.Seconds())
	res.set("core.install.server_tune_s", instRate*last.inst.Stats.ServerTuneTime.Seconds())
	if rc.trace {
		tuneLayers(rec, passes, res)
		if err := rec.finishTrace(rc, "tune_cached", res); err != nil {
			return err
		}
		hostMicro(rc, res)
		tuneMicro(rc, last, res)
	}
	return nil
}

// tuneLayers turns the traced passes' spans into the core.tune.* split of
// the predictive phase: time inside the program (graph/tensorops), time
// scoring (qos), and the tuner's own time (predictor, autotuner, pareto).
func tuneLayers(rec *recorder, passes []*tunePass, res *results) {
	var traced []*tunePass
	for _, p := range passes {
		if p.timed != nil {
			traced = append(traced, p)
		}
	}
	if len(traced) == 0 {
		return
	}
	n := float64(len(traced))
	// Per predictive-phase span: union of program.run children, union of
	// program.score children, and what is left.
	var runS, scoreS, selfS float64
	var runs int
	byParent := map[int][]spanRec{}
	for _, s := range rec.spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, s := range rec.spans {
		if s.Name != "core.predictive_tune" {
			continue
		}
		var run, score []spanRec
		for _, k := range byParent[s.ID] {
			if k.Name == "program.run" {
				run = append(run, k)
			} else {
				score = append(score, k)
			}
		}
		// Span times are wall times; the pass the span belongs to (its Op)
		// says at what rate its predictive phase ran on the host clock.
		p := passes[s.Op-1]
		rate := p.predictiveS / p.phaseTook[0].Seconds() / 1e9
		runs += len(run)
		runS += rate * float64(covered(s.Start, s.End, run))
		scoreS += rate * float64(covered(s.Start, s.End, score))
		selfS += rate * float64(s.End-s.Start-covered(s.Start, s.End, byParent[s.ID]))
	}
	res.set("core.tune.program_run_s", runS/n)
	res.set("core.tune.program_runs", float64(runs)/n)
	res.set("core.tune.score_s", scoreS/n)
	res.set("core.tune.self_s", selfS/n)
	if passes[0].timed == nil {
		var t []float64
		for _, p := range traced {
			t = append(t, p.predictiveS)
		}
		res.set("trace.overhead_share", median(t)/passes[0].predictiveS-1)
	}
}

// checkTuneDigests compares the passes' curve digests with each other and,
// on the pinned seed and scale, with expected.json.
func checkTuneDigests(rc runConfig, passes []*tunePass, res *results) error {
	if rc.writeExpected {
		return updateExpected(func(e *expectedFile) {
			e.Tune = map[string]string{}
			for i, name := range tunePhases {
				e.Tune[name] = passes[0].digests[i]
			}
		})
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	pinned := rc.refScale
	if pinned {
		res.note("curves checked against expected.json")
	} else {
		res.note("scale %.3g has no expected.json entry: curves checked by comparing the cold passes", rc.frac)
	}
	for pi, p := range passes {
		for i, name := range tunePhases {
			switch {
			case p.digests[i] != passes[0].digests[i]:
				res.fail("pass %d %s curve differs from pass 0", pi, name)
			case pinned && p.digests[i] != exp.Tune[name]:
				res.fail("pass %d %s curve sha256 %s, expected %s", pi, name, p.digests[i], exp.Tune[name])
			}
		}
	}
	return nil
}
