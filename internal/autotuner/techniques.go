package autotuner

import (
	"math"

	"repro/internal/approx"
	"repro/internal/tensor"
)

// technique is one member of the search ensemble. propose generates a
// candidate; feedback lets stateful techniques (hill climbing, annealing)
// update their internal position.
type technique interface {
	name() string
	propose(t *Tuner) approx.Config
	feedback(t *Tuner, cfg approx.Config, fit float64, improved bool)
}

// randomSearch draws uniformly from the space; it provides global
// exploration and is the baseline technique of the OpenTuner ensemble.
type randomSearch struct{}

func (randomSearch) name() string                                  { return "random" }
func (randomSearch) propose(t *Tuner) approx.Config                { return t.randomConfig() }
func (randomSearch) feedback(*Tuner, approx.Config, float64, bool) {}

// greedyMutate perturbs the best configuration in 1–3 positions — the
// evolutionary-mutation workhorse.
type greedyMutate struct{}

func (greedyMutate) name() string { return "greedy-mutate" }
func (g greedyMutate) propose(t *Tuner) approx.Config {
	return t.mutate(t.seedConfig(), 1+t.rng.Intn(3))
}
func (greedyMutate) feedback(*Tuner, approx.Config, float64, bool) {}

// hillClimb is a coordinate-descent climber in the spirit of the Torczon
// hill climbers OpenTuner ships: it sweeps over ops, trying each knob for
// the current coordinate before moving to the next.
type hillClimb struct {
	opIdx   int
	knobIdx int
}

func (hillClimb) name() string { return "hill-climb" }
func (h *hillClimb) propose(t *Tuner) approx.Config {
	cfg := t.seedConfig()
	op := t.prob.Ops[h.opIdx%len(t.prob.Ops)]
	ks := t.prob.Knobs[op]
	cfg[op] = ks[h.knobIdx%len(ks)]
	return cfg
}
func (h *hillClimb) feedback(t *Tuner, _ approx.Config, _ float64, improved bool) {
	op := t.prob.Ops[h.opIdx%len(t.prob.Ops)]
	h.knobIdx++
	if improved || h.knobIdx >= len(t.prob.Knobs[op]) {
		h.knobIdx = 0
		h.opIdx++
	}
}

// evolution recombines two elite configurations (uniform crossover) and
// lightly mutates the child.
type evolution struct{}

func (evolution) name() string { return "evolution" }
func (evolution) propose(t *Tuner) approx.Config {
	if len(t.elites) < 2 {
		return t.randomConfig()
	}
	a := t.elites[t.rng.Intn(len(t.elites))].cfg
	b := t.elites[t.rng.Intn(len(t.elites))].cfg
	child := make(approx.Config, len(t.prob.Ops))
	for _, op := range t.prob.Ops {
		if t.rng.Float64() < 0.5 {
			child[op] = a.Knob(op)
		} else {
			child[op] = b.Knob(op)
		}
	}
	if t.rng.Float64() < 0.5 {
		child = t.mutate(child, 1)
	}
	return child
}
func (evolution) feedback(*Tuner, approx.Config, float64, bool) {}

// annealer performs simulated annealing around its own current point,
// accepting worse moves with temperature-dependent probability.
type annealer struct {
	cur    approx.Config
	curFit float64
	temp   float64
}

func (annealer) name() string { return "anneal" }
func (a *annealer) propose(t *Tuner) approx.Config {
	if a.cur == nil {
		a.cur = t.randomConfig()
		a.curFit = math.Inf(-1)
	}
	return t.mutate(a.cur, 1+t.rng.Intn(2))
}
func (a *annealer) feedback(t *Tuner, cfg approx.Config, fit float64, _ bool) {
	if fit > a.curFit || t.rng.Float64() < math.Exp((fit-a.curFit)/math.Max(a.temp, 1e-3)) {
		a.cur = cfg.Clone()
		a.curFit = fit
	}
	a.temp *= 0.999
}

// bandit allocates proposals across techniques with a UCB rule over a
// sliding window of improvement outcomes — the AUC-bandit meta-technique
// of OpenTuner, simplified.
type bandit struct {
	wins   []float64
	trials []float64
	total  float64
}

func newBandit(n int) *bandit {
	return &bandit{wins: make([]float64, n), trials: make([]float64, n)}
}

func (b *bandit) pick(rng *tensor.RNG) int {
	best, bestScore := 0, math.Inf(-1)
	for i := range b.trials {
		var score float64
		if b.trials[i] == 0 {
			score = math.Inf(1) // try everything once
		} else {
			score = b.wins[i]/b.trials[i] + math.Sqrt(2*math.Log(b.total+1)/b.trials[i])
		}
		// random tie-break keeps the ensemble diverse
		score += float64(rng.Float64() * 1e-9)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

func (b *bandit) report(i int, improved bool) {
	const decay = 0.995 // sliding-window effect
	for j := range b.trials {
		b.wins[j] *= decay
		b.trials[j] *= decay
	}
	b.trials[i]++
	b.total++
	if improved {
		b.wins[i]++
	}
}
