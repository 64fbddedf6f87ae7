// Package autotuner is the off-the-shelf search engine Algorithm 1 plugs
// into — the stand-in for OpenTuner (§6.4). Like OpenTuner it runs an
// ensemble of search techniques (random search, greedy mutation, a
// coordinate hill climber, an evolutionary mutator, and simulated
// annealing) under a multi-armed-bandit meta-technique that allocates
// proposals to whichever technique has recently produced improvements.
// Convergence follows the paper's protocol: tuning stops after a fixed
// stall window with no improvement, or at the iteration cap.
package autotuner

import (
	"math"

	"repro/internal/approx"
	"repro/internal/tensor"
)

// Problem defines a discrete configuration space: the approximable ops and
// the knob candidates for each.
type Problem struct {
	Ops   []int
	Knobs map[int][]approx.KnobID
}

// valid panics on malformed problems.
func (p Problem) valid() {
	if len(p.Ops) == 0 {
		panic("autotuner: no ops to tune")
	}
	for _, op := range p.Ops {
		if len(p.Knobs[op]) == 0 {
			panic("autotuner: op has no candidate knobs")
		}
	}
}

// Feedback is the evaluation of a proposed configuration. QoS and Perf
// follow the paper's conventions (higher better; Perf is a speedup).
type Feedback struct {
	QoS  float64
	Perf float64
}

// Options tunes the search.
type Options struct {
	MaxIters   int     // hard iteration cap (paper: 30K)
	StallLimit int     // stop after this many non-improving iterations (paper: 1K)
	QoSMin     float64 // the QoS constraint the fitness penalizes against
	Seed       int64
	// Techniques restricts the ensemble to the named techniques ("random",
	// "greedy-mutate", "hill-climb", "evolution", "anneal"); empty means
	// the full ensemble. Used by the ensemble-vs-single ablation.
	Techniques []string
}

func (o Options) norm() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 30000
	}
	if o.StallLimit == 0 {
		o.StallLimit = 1000
	}
	return o
}

// Tuner drives the search. Usage: for !t.Done() { c := t.Next();
// t.Report(c, fb) }.
type Tuner struct {
	prob Problem
	opts Options
	rng  *tensor.RNG

	iter       int
	sinceBest  int
	best       approx.Config
	bestFit    float64
	elites     []scored // archive of top configurations
	techniques []technique
	bandit     *bandit
	lastTech   int
	// pendingTechs parallels the configs of the last NextBatch call: which
	// technique proposed each entry, consumed in order by ReportBatch.
	pendingTechs []int
}

type scored struct {
	cfg approx.Config
	fit float64
}

// New creates a tuner for the problem.
func New(p Problem, o Options) *Tuner {
	p.valid()
	o = o.norm()
	t := &Tuner{
		prob:    p,
		opts:    o,
		rng:     tensor.NewRNG(o.Seed),
		bestFit: math.Inf(-1),
	}
	all := []technique{
		&randomSearch{},
		&greedyMutate{},
		&hillClimb{},
		&evolution{},
		&annealer{temp: 1.0},
	}
	if len(o.Techniques) == 0 {
		t.techniques = all
	} else {
		want := make(map[string]bool, len(o.Techniques))
		for _, n := range o.Techniques {
			want[n] = true
		}
		for _, tech := range all {
			if want[tech.name()] {
				t.techniques = append(t.techniques, tech)
			}
		}
		if len(t.techniques) == 0 {
			panic("autotuner: no known technique selected")
		}
	}
	t.bandit = newBandit(len(t.techniques))
	return t
}

// Prime injects an externally evaluated configuration (typically the
// exact baseline, which is always feasible) as the search's starting
// point, without counting an iteration or crediting any technique.
func (t *Tuner) Prime(cfg approx.Config, fb Feedback) {
	fit := t.fitness(fb)
	if fit > t.bestFit {
		t.bestFit = fit
		t.best = cfg.Clone()
	}
	t.addElite(cfg, fit)
}

// Iterations returns how many proposals have been evaluated.
func (t *Tuner) Iterations() int { return t.iter }

// Done reports whether the search has converged or hit the cap.
func (t *Tuner) Done() bool {
	return t.iter >= t.opts.MaxIters || (t.iter > 0 && t.sinceBest >= t.opts.StallLimit)
}

// Best returns the best configuration found so far and its fitness.
func (t *Tuner) Best() (approx.Config, float64) { return t.best, t.bestFit }

// Next proposes the next configuration to evaluate.
func (t *Tuner) Next() approx.Config {
	cfg, tech := t.propose()
	t.lastTech = tech
	return cfg
}

// propose draws one configuration from the bandit-selected technique.
func (t *Tuner) propose() (approx.Config, int) {
	tech := t.bandit.pick(t.rng)
	mProposals.With(t.techniques[tech].name()).Inc()
	return t.techniques[tech].propose(t), tech
}

// NextBatch proposes up to k configurations for concurrent evaluation,
// clamped so the search never overshoots MaxIters. All k are drawn before
// any of their feedback exists — a batch trades per-proposal adaptivity for
// evaluation parallelism, and its composition depends only on the tuner
// state at the call, never on evaluation order or worker count.
// NextBatch(1) followed by ReportBatch is identical to Next+Report.
func (t *Tuner) NextBatch(k int) []approx.Config {
	if rem := t.opts.MaxIters - t.iter; k > rem {
		k = rem
	}
	if k < 1 {
		k = 1
	}
	cfgs := make([]approx.Config, 0, k)
	t.pendingTechs = t.pendingTechs[:0]
	for i := 0; i < k; i++ {
		cfg, tech := t.propose()
		cfgs = append(cfgs, cfg)
		t.pendingTechs = append(t.pendingTechs, tech)
	}
	return cfgs
}

// ReportBatch feeds back the evaluations of the configurations returned by
// the previous NextBatch call, in index order. Callers evaluating the batch
// concurrently must collect results by index before reporting, which keeps
// best/elite selection and technique credit deterministic regardless of
// evaluation interleaving.
func (t *Tuner) ReportBatch(cfgs []approx.Config, fbs []Feedback) {
	if len(cfgs) != len(fbs) || len(cfgs) > len(t.pendingTechs) {
		panic("autotuner: ReportBatch arity mismatch with NextBatch")
	}
	for i, cfg := range cfgs {
		t.reportWith(t.pendingTechs[i], cfg, fbs[i])
	}
	t.pendingTechs = t.pendingTechs[:0]
}

// Report feeds back the evaluation of the configuration returned by the
// previous Next call (§3.1: "setConfigFitness").
func (t *Tuner) Report(cfg approx.Config, fb Feedback) {
	t.reportWith(t.lastTech, cfg, fb)
}

func (t *Tuner) reportWith(tech int, cfg approx.Config, fb Feedback) {
	t.iter++
	fit := t.fitness(fb)
	improved := fit > t.bestFit
	mIters.Inc()
	if improved {
		t.bestFit = fit
		t.best = cfg.Clone()
		t.sinceBest = 0
		mAccepts.Inc()
		gBestFit.Set(fit)
	} else {
		t.sinceBest++
		mRejects.Inc()
	}
	t.bandit.report(tech, improved)
	t.techniques[tech].feedback(t, cfg, fit, improved)
	t.addElite(cfg, fit)
}

// qosPenalty scales how hard sub-threshold QoS hurts fitness: 10 makes
// even small threshold violations cost more than any realistic speedup,
// steering the search back into feasibility (final filtering happens at
// QoS validation regardless).
const qosPenalty = 10

// fitness maximizes Perf subject to the QoS constraint, with a linear
// penalty for shortfall so the search can climb back into feasibility.
func (t *Tuner) fitness(fb Feedback) float64 {
	fit := fb.Perf
	if fb.QoS < t.opts.QoSMin {
		fit -= float64((t.opts.QoSMin - fb.QoS) * qosPenalty)
	}
	return fit
}

const eliteCap = 16

func (t *Tuner) addElite(cfg approx.Config, fit float64) {
	t.elites = append(t.elites, scored{cfg.Clone(), fit})
	// keep the top eliteCap by fitness (insertion into a small slice)
	for i := len(t.elites) - 1; i > 0 && t.elites[i].fit > t.elites[i-1].fit; i-- {
		t.elites[i], t.elites[i-1] = t.elites[i-1], t.elites[i]
	}
	if len(t.elites) > eliteCap {
		t.elites = t.elites[:eliteCap]
	}
}

// randomConfig draws a uniform configuration.
func (t *Tuner) randomConfig() approx.Config {
	cfg := make(approx.Config, len(t.prob.Ops))
	for _, op := range t.prob.Ops {
		ks := t.prob.Knobs[op]
		cfg[op] = ks[t.rng.Intn(len(ks))]
	}
	return cfg
}

// mutate returns a copy of cfg with n random ops reassigned.
func (t *Tuner) mutate(cfg approx.Config, n int) approx.Config {
	out := cfg.Clone()
	for i := 0; i < n; i++ {
		op := t.prob.Ops[t.rng.Intn(len(t.prob.Ops))]
		ks := t.prob.Knobs[op]
		out[op] = ks[t.rng.Intn(len(ks))]
	}
	return out
}

// seedConfig returns the best config, or a random one before any feedback.
func (t *Tuner) seedConfig() approx.Config {
	if t.best == nil {
		return t.randomConfig()
	}
	return t.best.Clone()
}
