package core

import (
	"fmt"
	"time"

	"repro/internal/approx"
	"repro/internal/autotuner"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/tensor"
)

// Options configures a development-time tuning run.
type Options struct {
	// QoSMin is the minimal acceptable QoS (absolute, same units as the
	// program's metric) — Algorithm 1's QoS_min.
	QoSMin float64
	// Model selects the error-composition model (Π1 or Π2) for predictive
	// tuning; ignored by EmpiricalTune.
	Model predictor.Model
	// NCalibrate is the number of measured configurations used to fit α
	// (paper: "50 are sufficient").
	NCalibrate int
	// MaxIters / StallLimit bound the search (paper: 30K / 1K).
	MaxIters   int
	StallLimit int
	// MaxConfigs bounds both the validated set and the shipped curve
	// (§6.4: at most 50 configurations are retained; ε1, ε2 are derived).
	MaxConfigs int
	// Policy selects the knob space (hardware knobs, FP16 availability).
	Policy KnobPolicy
	// Profiles, when non-nil, skips profile collection and reuses the
	// given tables (distributed install-time tuning supplies merged
	// profiles this way).
	Profiles *predictor.Profiles
	// PerfModel, when set, replaces the hardware-agnostic Eq. 3 predictor
	// as the Perf objective — §3.1: "tuning other goals such as energy
	// savings by providing a corresponding prediction model".
	PerfModel func(approx.Config) float64
	// EvalBatch is how many candidate configurations EmpiricalTune draws
	// per search step (Tuner.NextBatch) and evaluates concurrently. A batch
	// is proposed before any of its feedback exists, so the search
	// trajectory depends on the batch size but never on worker count or
	// evaluation order. The default is a fixed machine-independent 8 —
	// deliberately not GOMAXPROCS, so the same seed gives the same curve on
	// every host; 1 recovers the classic fully-sequential loop.
	EvalBatch int
	Seed      int64
}

// defaultEvalBatch is EmpiricalTune's machine-independent batch width.
const defaultEvalBatch = 8

func (o Options) norm() Options {
	if o.Model == 0 {
		o.Model = predictor.Pi2
	}
	if o.NCalibrate == 0 {
		o.NCalibrate = 50
	}
	if o.MaxIters == 0 {
		o.MaxIters = 30000
	}
	if o.StallLimit == 0 {
		o.StallLimit = 1000
	}
	if o.MaxConfigs == 0 {
		o.MaxConfigs = 50
	}
	if o.EvalBatch == 0 {
		o.EvalBatch = defaultEvalBatch
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Stats reports how a tuning run went — the raw material of Table 4 and
// the curve-size discussion in §7.3.
type Stats struct {
	Iterations    int
	Candidates    int           // configurations passing the predicted-QoS gate
	RawConfigs    int           // all configurations the search generated
	Validated     int           // configurations surviving QoS validation
	Alpha         float64       // fitted predictor coefficient
	ProfileTime   time.Duration // step 1
	CalibrateTime time.Duration // step 2
	SearchTime    time.Duration // step 3
	ValidateTime  time.Duration // steps 4–5
	Total         time.Duration
}

// Result is a completed tuning run: the tradeoff curve plus stats and the
// profiles (reusable at install time).
type Result struct {
	Curve    *pareto.Curve
	Stats    Stats
	Profiles *predictor.Profiles
}

// PredictiveTune is Algorithm 1: profile collection, predictor
// calibration, model-driven search, tradeoff-curve construction, and QoS
// validation.
func PredictiveTune(p Program, o Options) (*Result, error) {
	o = o.norm()
	if o.Model == predictor.Pi1 && !p.FixedOutputShape() {
		return nil, fmt.Errorf("core: program %q has variable output shapes; Π1 requires fixed shapes (§8)", p.Name())
	}
	root := obs.Start("phase:devtime").
		With("program", p.Name()).With("model", o.Model.String()).With("qos_min", o.QoSMin)
	defer root.End()
	if pp, ok := p.(Prepacker); ok {
		pp.Prepack(root)
	}
	watch := NewStopwatch()
	rng := tensor.NewRNG(o.Seed)
	var st Stats

	// Step 1: collect QoS profiles (lines 12–15).
	profiles := o.Profiles
	if profiles == nil {
		psp := root.Child("profile")
		profiles = CollectProfiles(p, nil, func(op int) []approx.KnobID {
			return KnobsFor(p, op, o.Policy)
		}, rng.Split(1), psp)
		psp.End()
	}
	st.ProfileTime = watch.Lap()

	// Steps 2–4: calibrate the predictor, search with it, shortlist.
	candidates, err := searchShortlist(p, profiles, o, rng.Split(2), root, watch, &st)
	if err != nil {
		return nil, err
	}

	// Step 5: validate the predicted QoS empirically and filter
	// (lines 36–41).
	vsp := root.Child("validate").With("shortlist", len(candidates))
	validated, _ := validate(p, p, candidates, 0, 1, rng.Split(3), InstallOptions{Options: o}, vsp)
	st.Validated = len(validated)
	final := shortlist(validated, o.MaxConfigs)
	vsp.With("validated", st.Validated).End()
	st.ValidateTime = watch.Lap()
	st.Total = watch.Total()

	curve := pareto.NewRelaxedCurve(p.Name(), profiles.BaseQoS, final)
	return &Result{Curve: curve, Stats: st, Profiles: profiles}, nil
}

// EmpiricalTune is the conventional autotuning baseline the paper compares
// against (§3, §7.3): every candidate configuration is evaluated by
// actually running the program on the calibration inputs. Performance
// still comes from the hardware-agnostic cost model, exactly as at
// development time in the paper (real hardware is absent until install
// time).
//
// Candidates are drawn EvalBatch at a time (Tuner.NextBatch) and evaluated
// concurrently. Each evaluation's RNG is split off the run RNG
// sequentially before the batch runs, so an evaluation depends only on its
// (config, rng) pair; feedback is reported in index order
// (Tuner.ReportBatch). The resulting curve is a deterministic function of
// (seed, EvalBatch) — worker count and evaluation interleaving cannot
// change it — and EvalBatch=1 reproduces the sequential loop exactly.
func EmpiricalTune(p Program, o Options) (*Result, error) {
	o = o.norm()
	root := obs.Start("phase:devtime").
		With("program", p.Name()).With("model", "empirical").With("qos_min", o.QoSMin)
	defer root.End()
	if pp, ok := p.(Prepacker); ok {
		pp.Prepack(root)
	}
	watch := NewStopwatch()
	rng := tensor.NewRNG(o.Seed)
	var st Stats

	baseQoS := p.Score(Calib, baselineOutput(p, Calib))
	evaluated := 0
	measured := func(cfgs []approx.Config) []float64 {
		rngs := make([]*tensor.RNG, len(cfgs))
		for j := range cfgs {
			rngs[j] = rng.Split(int64(evaluated + j))
		}
		evaluated += len(cfgs)
		return evalScores(p, cfgs, rngs, nil)
	}
	candidates := search(p, o, baseQoS, o.EvalBatch, measured, root, &st)
	st.SearchTime = watch.Lap()

	// Every candidate's QoS is already a measurement: the shortlist ships.
	final := ensureBaseline(shortlist(candidates, o.MaxConfigs), p, baseQoS)
	st.Validated = len(final)
	st.Total = watch.Total()

	curve := pareto.NewRelaxedCurve(p.Name(), baseQoS, final)
	return &Result{Curve: curve, Stats: st}, nil
}

// searchShortlist is steps 2–4 of Algorithm 1 over a knob space o.Policy
// and profiles that cover it: calibrate Π, search with Π as the QoS oracle,
// keep the ε1-shortlist. Development time runs it on the software knobs,
// install time (SearchShortlist) on software and hardware knobs together.
func searchShortlist(p Program, profiles *predictor.Profiles, o Options, calibRng *tensor.RNG, parent *obs.Span, watch *Stopwatch, st *Stats) ([]pareto.Point, error) {
	if o.Model == predictor.Pi1 && !profiles.SupportsPi1() {
		return nil, fmt.Errorf("core: Π1 unavailable for %q: the profiles carry no raw-output deltas", p.Name())
	}

	// Step 2: initialize and calibrate the QoS predictor (lines 18–20).
	csp := parent.Child("calibrate").With("samples", o.NCalibrate)
	qp := predictor.NewQoSPredictor(o.Model, profiles, func(out *tensor.Tensor) float64 { return p.Score(Calib, out) })
	prob := ProblemFor(p, o.Policy)
	cfgs := make([]approx.Config, o.NCalibrate)
	rngs := make([]*tensor.RNG, o.NCalibrate)
	for i := range cfgs {
		// Draw the config and the per-run RNG sequentially (Split advances
		// the parent), in the exact interleaving of a sequential loop,
		// before fanning the runs out.
		cfgs[i] = RandomConfig(prob, calibRng)
		rngs[i] = calibRng.Split(int64(i))
	}
	samples := make([]predictor.Sample, o.NCalibrate)
	for i, q := range evalScores(p, cfgs, rngs, csp) {
		samples[i] = predictor.Sample{Cfg: cfgs[i], QoS: q}
	}
	st.Alpha = qp.Calibrate(samples)
	csp.With("alpha", st.Alpha).End()
	st.CalibrateTime = watch.Lap()

	// Step 3: autotune with the QoS and performance prediction models
	// (lines 23–30) — the search's batch-of-one case, since a prediction
	// costs nothing to wait for.
	predicted := func(cfgs []approx.Config) []float64 {
		qos := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			qos[i] = qp.Predict(cfg)
		}
		return qos
	}
	candidates := search(p, o, profiles.BaseQoS, 1, predicted, parent, st)
	st.SearchTime = watch.Lap()

	// Step 4: keep configurations within ε1 of the Pareto frontier
	// (line 33), bounding the validation workload. The exact baseline is
	// re-attached: it is trivially valid and guarantees the shipped curve is
	// never empty even when an optimistic predictor Pareto-dominates it out
	// of the shortlist and every other candidate fails validation.
	return ensureBaseline(shortlist(candidates, o.MaxConfigs), p, profiles.BaseQoS), nil
}

// search is the one autotuning loop (Algorithm 1 lines 23–30): prime the
// tuner with the exact baseline, then propose batch configurations at a
// time, score them — by prediction or by measurement, the caller's choice —
// report the feedback in index order, and keep each distinct configuration
// that clears QoS_min as a candidate tradeoff point. A batch is proposed
// before any of its feedback exists, so the trajectory depends on batch but
// never on how score evaluates it.
func search(p Program, o Options, baseQoS float64, batch int, score func([]approx.Config) []float64, parent *obs.Span, st *Stats) []pareto.Point {
	ssp := parent.Child("search")
	perfOf := perfModel(p, o)
	tuner := autotuner.New(ProblemFor(p, o.Policy), autotuner.Options{
		MaxIters:   o.MaxIters,
		StallLimit: o.StallLimit,
		QoSMin:     o.QoSMin,
		Seed:       o.Seed + 7,
	})
	// The exact baseline is always feasible; prime the search with it and
	// keep it as a candidate so the curve is never empty.
	base := baselinePoint(p, baseQoS)
	tuner.Prime(base.Config, autotuner.Feedback{QoS: base.QoS, Perf: base.Perf})
	candidates := []pareto.Point{base}
	nOps := maxOp(p) + 1
	seen := map[string]bool{base.Config.Key(nOps): true}
	fbs := make([]autotuner.Feedback, 0, batch)
	for !tuner.Done() {
		cfgs := tuner.NextBatch(batch)
		qos := score(cfgs)
		fbs = fbs[:0]
		for j, cfg := range cfgs {
			fbs = append(fbs, autotuner.Feedback{QoS: qos[j], Perf: perfOf(cfg)})
		}
		tuner.ReportBatch(cfgs, fbs)
		for j, cfg := range cfgs {
			if qos[j] <= o.QoSMin {
				continue
			}
			if key := cfg.Key(nOps); !seen[key] {
				seen[key] = true
				candidates = append(candidates, pareto.Point{QoS: qos[j], Perf: fbs[j].Perf, Config: cfg.Clone()})
			}
		}
	}
	// Every proposal is reported, so the two counts are one number.
	st.Iterations, st.RawConfigs = tuner.Iterations(), tuner.Iterations()
	st.Candidates = len(candidates)
	ssp.With("iterations", st.Iterations).With("candidates", st.Candidates).End()
	return candidates
}

// shortlist keeps the points within ε of the Pareto frontier, with ε the
// largest rung of §6.4's ladder that holds the set to limit (ε1 before
// validation, ε2 after).
func shortlist(points []pareto.Point, limit int) []pareto.Point {
	return pareto.Trim(pareto.RelaxedSet(points, pareto.EpsilonForLimit(points, limit)), limit)
}

// validate is the one place a configuration's real QoS is measured and held
// against QoS_min (Algorithm 1 lines 36–41, and §4's re-measurement on the
// target): it runs pts[first], pts[first+stride], … on local, drops the points
// at or under o.QoSMin, and returns the survivors with their measured QoS.
// With a device in o, points holding a knob the device cannot execute are
// skipped before they run and survivors carry the Perf measured on it (full
// is the whole-calibration-set program whose costs the device model reads);
// without one they keep their predicted Perf. ran counts the points executed.
//
// Each run's RNG is rng.Split(index in pts), drawn sequentially for the
// points that run — a skipped point advances nothing — before the runs fan
// out, so the result is independent of worker count and interleaving.
func validate(local, full Program, pts []pareto.Point, first, stride int, rng *tensor.RNG, o InstallOptions, sp *obs.Span) (kept []pareto.Point, ran int) {
	var cfgs []approx.Config
	var rngs []*tensor.RNG
	for i := first; i < len(pts); i += stride {
		if o.Device != nil && !deviceSupports(o.Device, pts[i].Config) {
			continue
		}
		kept = append(kept, pts[i])
		cfgs = append(cfgs, pts[i].Config)
		rngs = append(rngs, rng.Split(int64(i)))
	}
	ran = len(kept)
	n := 0
	for j, qos := range evalScores(local, cfgs, rngs, sp) {
		if qos <= o.QoSMin {
			continue
		}
		pt := kept[j]
		pt.QoS = qos
		if o.Device != nil {
			pt.Perf = measurePerf(full, o.Device, o.Objective, pt.Config)
		}
		kept[n] = pt
		n++
	}
	return kept[:n], ran
}

// evalScores runs p once per (config, rng) pair — concurrently when the
// host allows — and returns the Calib QoS of each run in index order. The
// rngs must be split off their parent sequentially before the call: each
// evaluation then depends only on its own pair, so the scores are
// independent of worker count and evaluation interleaving.
func evalScores(p Program, cfgs []approx.Config, rngs []*tensor.RNG, sp *obs.Span) []float64 {
	qos := make([]float64, len(cfgs))
	parallel.For(len(cfgs), func(i int) {
		out := runTraced(p, cfgs[i], Calib, rngs[i], sp)
		qos[i] = p.Score(Calib, out)
	})
	return qos
}

// ProblemFor builds the autotuner search space for a program under a knob
// policy.
func ProblemFor(p Program, pol KnobPolicy) autotuner.Problem {
	ops := p.Ops()
	knobs := make(map[int][]approx.KnobID, len(ops))
	for _, op := range ops {
		knobs[op] = KnobsFor(p, op, pol)
	}
	return autotuner.Problem{Ops: ops, Knobs: knobs}
}

// RandomConfig draws one knob per op of prob, uniformly from each op's
// knobs, in prob.Ops order.
func RandomConfig(prob autotuner.Problem, rng *tensor.RNG) approx.Config {
	cfg := make(approx.Config, len(prob.Ops))
	for _, op := range prob.Ops {
		ks := prob.Knobs[op]
		cfg[op] = ks[rng.Intn(len(ks))]
	}
	return cfg
}

// perfModel returns the configured Perf objective: the caller-supplied
// model when present, otherwise the hardware-agnostic Eq. 3 predictor.
func perfModel(p Program, o Options) func(approx.Config) float64 {
	if o.PerfModel != nil {
		return o.PerfModel
	}
	pp := predictor.NewPerfPredictor(p.Costs())
	return pp.Predict
}

// ensureBaseline prepends the baseline tradeoff point when absent.
func ensureBaseline(points []pareto.Point, p Program, baseQoS float64) []pareto.Point {
	base := baselinePoint(p, baseQoS)
	nOps := maxOp(p) + 1
	for _, pt := range points {
		if pt.Config.Equal(base.Config, nOps) {
			return points
		}
	}
	return append([]pareto.Point{base}, points...)
}

// baselinePoint is the exact execution as a tradeoff point: every op at
// FP32, and Perf 1 under any objective because Perf is relative to it.
func baselinePoint(p Program, baseQoS float64) pareto.Point {
	cfg := make(approx.Config)
	for _, op := range p.Ops() {
		cfg[op] = approx.KnobFP32
	}
	return pareto.Point{QoS: baseQoS, Perf: 1, Config: cfg}
}

func maxOp(p Program) int {
	m := 0
	for _, op := range p.Ops() {
		if op > m {
			m = op
		}
	}
	return m
}
