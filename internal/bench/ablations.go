package bench

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/tensor"
)

// Ablation benches for the design choices DESIGN.md §4 calls out.

// PredictorAccuracy measures how well Π1 and Π2 predict measured QoS:
// RMSE and rank (Spearman-ish sign-agreement) over random configurations.
func PredictorAccuracy(s *Session, name string, nSamples int) *Report {
	r := &Report{
		Name:   "predictor_accuracy",
		Title:  fmt.Sprintf("Π1 vs Π2 prediction error on %s", name),
		Header: []string{"Model", "RMSE", "rank-agreement"},
	}
	e := s.Entry(name)
	profiles := s.Profiles(name)
	prob := core.ProblemFor(e.prog, core.KnobPolicy{AllowFP16: true})
	rng := tensor.NewRNG(s.Cfg().Seed + 77)
	type sample struct {
		cfg  approx.Config
		real float64
	}
	var samples []sample
	for i := 0; i < nSamples; i++ {
		cfg := core.RandomConfig(prob, rng)
		out := e.prog.Run(cfg, core.Calib, nil)
		samples = append(samples, sample{cfg, e.prog.Score(core.Calib, out)})
	}
	scoreFn := func(out *tensor.Tensor) float64 { return e.prog.Score(core.Calib, out) }
	for _, model := range []predictor.Model{predictor.Pi1, predictor.Pi2} {
		var qp *predictor.QoSPredictor
		if model == predictor.Pi1 {
			qp = predictor.NewQoSPredictor(predictor.Pi1, profiles, scoreFn)
		} else {
			qp = predictor.NewQoSPredictor(predictor.Pi2, profiles, nil)
		}
		// Calibrate on the first half, evaluate on the second.
		half := len(samples) / 2
		var calib []predictor.Sample
		for _, sm := range samples[:half] {
			calib = append(calib, predictor.Sample{Cfg: sm.cfg, QoS: sm.real})
		}
		qp.Calibrate(calib)
		eval := samples[half:]
		var sse float64
		agree, pairs := 0, 0
		preds := make([]float64, len(eval))
		for i, sm := range eval {
			preds[i] = qp.Predict(sm.cfg)
			d := preds[i] - sm.real
			sse += float64(d * d)
		}
		for i := 0; i < len(eval); i++ {
			for j := i + 1; j < len(eval); j++ {
				// rank agreement skips exactly-tied measured values by identity
				if eval[i].real == eval[j].real {
					continue
				}
				pairs++
				if (preds[i] > preds[j]) == (eval[i].real > eval[j].real) {
					agree++
				}
			}
		}
		rmse := math.Sqrt(sse / float64(len(eval)))
		rank := 0.0
		if pairs > 0 {
			rank = float64(agree) / float64(pairs)
		}
		r.Rows = append(r.Rows, []string{model.String(), f2(rmse), f2(rank)})
		r.AddMeasure(fmt.Sprintf("rmse_%s", model), rmse)
		r.AddMeasure(fmt.Sprintf("rank_%s", model), rank)
	}
	r.Notes = append(r.Notes, "paper: Π1 is more precise; Π2 systematically underestimates loss on some benchmarks")
	return r
}

// AlphaCalibration compares predictor error with α fixed at 1 versus the
// regressed α (§3.3's calibration step).
func AlphaCalibration(s *Session, name string, nSamples int) *Report {
	r := &Report{
		Name:   "alpha_calibration",
		Title:  fmt.Sprintf("Effect of α regression on Π2 prediction error (%s)", name),
		Header: []string{"Variant", "alpha", "RMSE"},
	}
	e := s.Entry(name)
	profiles := s.Profiles(name)
	prob := core.ProblemFor(e.prog, core.KnobPolicy{AllowFP16: true})
	rng := tensor.NewRNG(s.Cfg().Seed + 78)
	var samples []predictor.Sample
	for i := 0; i < nSamples; i++ {
		cfg := core.RandomConfig(prob, rng)
		out := e.prog.Run(cfg, core.Calib, nil)
		samples = append(samples, predictor.Sample{Cfg: cfg, QoS: e.prog.Score(core.Calib, out)})
	}
	half := len(samples) / 2
	rmseWith := func(alpha float64, calibrate bool) (float64, float64) {
		qp := predictor.NewQoSPredictor(predictor.Pi2, profiles, nil)
		qp.Alpha = alpha
		if calibrate {
			qp.Calibrate(samples[:half])
		}
		var sse float64
		for _, sm := range samples[half:] {
			d := qp.Predict(sm.Cfg) - sm.QoS
			sse += float64(d * d)
		}
		return qp.Alpha, math.Sqrt(sse / float64(len(samples)-half))
	}
	a0, r0 := rmseWith(1, false)
	a1, r1 := rmseWith(1, true)
	r.Rows = append(r.Rows,
		[]string{"α = 1 (uncalibrated)", f2(a0), f2(r0)},
		[]string{"α regressed", f2(a1), f2(r1)})
	r.AddMeasure("rmse_alpha1", r0)
	r.AddMeasure("rmse_calibrated", r1)
	return r
}

// EpsilonSweep shows how ε trades curve size against validation workload
// (§3.5: ε1/ε2 control curve quality, size and tuning time).
func EpsilonSweep(s *Session, name string) *Report {
	r := &Report{
		Name:   "epsilon_sweep",
		Title:  fmt.Sprintf("PSε size versus ε (%s, ΔQoS 3%%)", name),
		Header: []string{"ε", "|PSε|"},
	}
	// Re-run the predictive search loop directly, capturing the full
	// candidate cloud, then sweep ε over it (no validation runs needed).
	e := s.Entry(name)
	profiles := s.Profiles(name)
	qosMin := s.CalibBaseline(name) - 3
	prob := core.ProblemFor(e.prog, core.KnobPolicy{AllowFP16: true})
	qp := predictor.NewQoSPredictor(predictor.Pi2, profiles, nil)
	pp := predictor.NewPerfPredictor(e.prog.Costs())
	tuner := autotuner.New(prob, autotuner.Options{
		MaxIters:   s.cfg.MaxIters,
		StallLimit: s.cfg.StallLimit,
		QoSMin:     qosMin,
		Seed:       s.cfg.Seed + 6,
	})
	var points []pareto.Point
	for !tuner.Done() {
		cfg := tuner.Next()
		q, p := qp.Predict(cfg), pp.Predict(cfg)
		tuner.Report(cfg, autotuner.Feedback{QoS: q, Perf: p})
		if q > qosMin {
			points = append(points, pareto.Point{QoS: q, Perf: p, Config: cfg.Clone()})
		}
	}
	for _, eps := range []float64{0, 0.05, 0.1, 0.25, 0.5, 1, 2} {
		size := len(pareto.RelaxedSet(points, eps))
		r.Rows = append(r.Rows, []string{f2(eps), fmt.Sprint(size)})
		r.AddMeasure(fmt.Sprintf("ps_size_eps_%.2f", eps), float64(size))
	}
	r.AddMeasure("candidates", float64(len(points)))
	return r
}

// TechniqueAblation compares the full ensemble against random search
// alone at equal iteration budgets, on predicted fitness.
func TechniqueAblation(s *Session, name string) *Report {
	r := &Report{
		Name:   "technique_ablation",
		Title:  fmt.Sprintf("Ensemble vs random-only search (%s, ΔQoS 3%%)", name),
		Header: []string{"Search", "best Perf", "iterations"},
	}
	e := s.Entry(name)
	profiles := s.Profiles(name)
	qosMin := s.CalibBaseline(name) - 3
	scoreVariant := func(techniques []string) (float64, int) {
		prob := core.ProblemFor(e.prog, core.KnobPolicy{AllowFP16: true})
		qp := predictor.NewQoSPredictor(predictor.Pi2, profiles, nil)
		pp := predictor.NewPerfPredictor(e.prog.Costs())
		tuner := autotuner.New(prob, autotuner.Options{
			MaxIters:   s.cfg.MaxIters,
			StallLimit: s.cfg.MaxIters,
			QoSMin:     qosMin,
			Seed:       s.cfg.Seed + 5,
			Techniques: techniques,
		})
		best := 1.0
		for !tuner.Done() {
			cfg := tuner.Next()
			q := qp.Predict(cfg)
			p := pp.Predict(cfg)
			tuner.Report(cfg, autotuner.Feedback{QoS: q, Perf: p})
			if q > qosMin && p > best {
				best = p
			}
		}
		return best, tuner.Iterations()
	}
	bEns, iEns := scoreVariant(nil)
	bRnd, iRnd := scoreVariant([]string{"random"})
	r.Rows = append(r.Rows,
		[]string{"ensemble", f2(bEns), fmt.Sprint(iEns)},
		[]string{"random-only", f2(bRnd), fmt.Sprint(iRnd)})
	r.AddMeasure("ensemble_best", bEns)
	r.AddMeasure("random_best", bRnd)
	return r
}

// OffsetAblation compares tuning with the full offset dimension against a
// space restricted to offset 0, quantifying §7.2's observation that
// varying start offsets matters.
func OffsetAblation(s *Session, name string) *Report {
	r := &Report{
		Name:   "offset_ablation",
		Title:  fmt.Sprintf("Sampling/perforation offsets: full space vs offset-0 only (%s)", name),
		Header: []string{"Knob space", "best speedup @ΔQoS3%"},
	}
	e := s.Entry(name)
	qosMin := s.CalibBaseline(name) - 3
	gpu := device.NewTX2GPU()
	costs := e.prog.Costs()
	run := func(filter func(approx.Knob) bool) float64 {
		o := s.tuneOptions(qosMin, predictor.Pi2, core.KnobPolicy{AllowFP16: true, Filter: filter})
		o.Profiles = s.Profiles(name)
		res, err := core.PredictiveTune(e.prog, o)
		if err != nil {
			panic(err)
		}
		if pt, ok := res.Curve.Best(qosMin); ok {
			return gpu.Time(costs, nil) / gpu.Time(costs, pt.Config)
		}
		return 1
	}
	full := run(nil)
	zeroOnly := run(func(k approx.Knob) bool {
		if k.Kind == approx.KindSampling || k.Kind == approx.KindPerforation {
			return k.Offset == 0
		}
		return true
	})
	r.Rows = append(r.Rows,
		[]string{"all offsets", f2(full)},
		[]string{"offset 0 only", f2(zeroOnly)})
	r.AddMeasure("speedup_all_offsets", full)
	r.AddMeasure("speedup_offset0", zeroOnly)
	r.Notes = append(r.Notes, "paper §7.2: different start offsets align with more/less important elements")
	return r
}

// RuntimePolicies compares Policy 1 (enforce) and Policy 2 (average) under
// a mid-ladder DVFS slowdown: deadline misses versus average throughput.
func RuntimePolicies(s *Session, name string) *Report {
	r := &Report{
		Name:   "runtime_policies",
		Title:  fmt.Sprintf("Runtime Policy 1 vs Policy 2 (%s)", name),
		Header: []string{"Policy", "avg norm time", "deadline misses", "avg accuracy"},
	}
	d := newDVFSRuntime(s, name)
	for _, pol := range []core.Policy{core.PolicyEnforce, core.PolicyAverage} {
		rt := d.tuner(pol, s.cfg.Seed)
		defer rt.Close()
		d.gpu.SetFrequencyMHz(675) // the paper's worked mid-ladder point
		const batches = 60
		var sumTime, sumAcc float64
		misses := 0
		for b := 0; b < batches; b++ {
			bt, acc := d.invoke(rt)
			sumTime += bt
			if bt > d.target*1.02 {
				misses++
			}
			sumAcc += acc
		}
		r.Rows = append(r.Rows, []string{
			pol.String(), f2(sumTime / float64(batches) / d.target),
			fmt.Sprint(misses), f2(sumAcc / float64(batches)),
		})
		r.AddMeasure("avg_norm_time_"+pol.String(), sumTime/float64(batches)/d.target)
		r.AddMeasure("misses_"+pol.String(), float64(misses))
	}
	r.Notes = append(r.Notes, "policy 1 suits deadlines (fewer misses); policy 2 matches average throughput with less QoS loss")
	return r
}
