package autotuner

import (
	"math"
	"testing"

	"repro/internal/approx"
)

// quadratic test problem: ops 0..n-1, knobs 0..k-1 per op. The hidden
// objective rewards knob values near a target vector, with a QoS that
// degrades as knob indices grow.
func testProblem(n, k int) Problem {
	knobs := make(map[int][]approx.KnobID)
	ops := make([]int, n)
	for i := 0; i < n; i++ {
		ops[i] = i
		ks := make([]approx.KnobID, k)
		for j := 0; j < k; j++ {
			ks[j] = approx.KnobID(j)
		}
		knobs[i] = ks
	}
	return Problem{Ops: ops, Knobs: knobs}
}

// evaluate mimics an accuracy/speedup tradeoff: higher knob index = more
// aggressive approximation = faster but lower QoS, with per-op weights.
func evaluate(p Problem, cfg approx.Config) Feedback {
	var perf, qosLoss float64
	for i, op := range p.Ops {
		v := float64(cfg.Knob(op))
		perf += v * 0.1
		// later ops tolerate approximation better
		weight := 1.0 / float64(i+1)
		qosLoss += v * v * 0.05 * weight
	}
	return Feedback{QoS: 90 - qosLoss, Perf: 1 + perf}
}

func TestTunerFindsGoodConfigs(t *testing.T) {
	p := testProblem(6, 8)
	tuner := New(p, Options{MaxIters: 3000, StallLimit: 800, QoSMin: 89, Seed: 1})
	for !tuner.Done() {
		cfg := tuner.Next()
		tuner.Report(cfg, evaluate(p, cfg))
	}
	best, fit := tuner.Best()
	if best == nil {
		t.Fatal("no best config")
	}
	fb := evaluate(p, best)
	if fb.QoS < 89 {
		t.Errorf("best config violates QoS: %v", fb.QoS)
	}
	if fb.Perf < 1.5 {
		t.Errorf("best Perf %v too low — search failed to exploit tolerant ops", fb.Perf)
	}
	if fit <= 0 {
		t.Errorf("fitness %v", fit)
	}
	// The search should discover that later ops tolerate higher knobs.
	if best.Knob(5) <= best.Knob(0) {
		t.Logf("note: knob ordering not strict (op0=%d op5=%d)", best.Knob(0), best.Knob(5))
	}
}

func TestTunerDeterministic(t *testing.T) {
	p := testProblem(4, 5)
	run := func() (approx.Config, float64) {
		tuner := New(p, Options{MaxIters: 500, StallLimit: 200, QoSMin: 88, Seed: 7})
		for !tuner.Done() {
			cfg := tuner.Next()
			tuner.Report(cfg, evaluate(p, cfg))
		}
		return tuner.Best()
	}
	c1, f1 := run()
	c2, f2 := run()
	if f1 != f2 || !c1.Equal(c2, 4) {
		t.Fatal("same seed must reproduce the same search")
	}
}

func TestTunerConvergesBeforeCap(t *testing.T) {
	p := testProblem(2, 2) // tiny space: must stall quickly
	tuner := New(p, Options{MaxIters: 10000, StallLimit: 50, QoSMin: 80, Seed: 2})
	for !tuner.Done() {
		cfg := tuner.Next()
		tuner.Report(cfg, evaluate(p, cfg))
	}
	if tuner.Iterations() >= 10000 {
		t.Error("tiny space should converge long before the cap")
	}
}

func TestTunerRespectsIterationCap(t *testing.T) {
	p := testProblem(8, 10)
	tuner := New(p, Options{MaxIters: 100, StallLimit: 100000, QoSMin: 80, Seed: 3})
	n := 0
	for !tuner.Done() {
		cfg := tuner.Next()
		tuner.Report(cfg, evaluate(p, cfg))
		n++
	}
	if n != 100 {
		t.Errorf("ran %d iters, want exactly 100", n)
	}
}

func TestFitnessPenalizesQoSViolation(t *testing.T) {
	p := testProblem(1, 2)
	tuner := New(p, Options{QoSMin: 90, Seed: 4})
	ok := tuner.fitness(Feedback{QoS: 91, Perf: 1.5})
	bad := tuner.fitness(Feedback{QoS: 88, Perf: 1.5})
	if ok != 1.5 {
		t.Errorf("feasible fitness = %v, want 1.5", ok)
	}
	if math.Abs(bad-(1.5-2*qosPenalty)) > 1e-9 {
		t.Errorf("infeasible fitness = %v, want -18.5", bad)
	}
}

func TestProposalsAlwaysValid(t *testing.T) {
	p := testProblem(5, 3)
	valid := make(map[int]map[approx.KnobID]bool)
	for _, op := range p.Ops {
		valid[op] = map[approx.KnobID]bool{}
		for _, k := range p.Knobs[op] {
			valid[op][k] = true
		}
	}
	tuner := New(p, Options{MaxIters: 500, StallLimit: 500, QoSMin: 85, Seed: 5})
	for !tuner.Done() {
		cfg := tuner.Next()
		for _, op := range p.Ops {
			if !valid[op][cfg.Knob(op)] {
				t.Fatalf("op %d assigned invalid knob %d", op, cfg.Knob(op))
			}
		}
		tuner.Report(cfg, evaluate(p, cfg))
	}
}

func TestBanditTriesAllTechniques(t *testing.T) {
	b := newBandit(5)
	rng := newTestRNG()
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		k := b.pick(rng)
		seen[k] = true
		b.report(k, i%7 == 0)
	}
	if len(seen) != 5 {
		t.Errorf("bandit visited %d techniques, want all 5", len(seen))
	}
}

func TestBanditFavorsWinner(t *testing.T) {
	b := newBandit(2)
	rng := newTestRNG()
	// technique 0 always improves, technique 1 never does
	for i := 0; i < 400; i++ {
		k := b.pick(rng)
		b.report(k, k == 0)
	}
	if b.trials[0] <= b.trials[1] {
		t.Errorf("bandit should favor the improving technique: %v vs %v", b.trials[0], b.trials[1])
	}
}

func TestEmptyProblemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Problem{}, Options{})
}

// TestBatchOfOneMatchesSequential pins the batched API's base case: a
// NextBatch(1)+ReportBatch trajectory must be indistinguishable from the
// classic Next+Report loop under the same seed — same proposals, same best.
func TestBatchOfOneMatchesSequential(t *testing.T) {
	p := testProblem(4, 5)
	seq := New(p, Options{MaxIters: 400, StallLimit: 150, QoSMin: 88, Seed: 21})
	bat := New(p, Options{MaxIters: 400, StallLimit: 150, QoSMin: 88, Seed: 21})
	for step := 0; !seq.Done(); step++ {
		if bat.Done() {
			t.Fatalf("batched tuner converged early at step %d", step)
		}
		sc := seq.Next()
		bc := bat.NextBatch(1)
		if len(bc) != 1 || !sc.Equal(bc[0], 4) {
			t.Fatalf("step %d: proposals diverge: %v vs %v", step, sc, bc)
		}
		fb := evaluate(p, sc)
		seq.Report(sc, fb)
		bat.ReportBatch(bc, []Feedback{fb})
	}
	if !bat.Done() {
		t.Fatal("batched tuner did not converge with the sequential one")
	}
	c1, f1 := seq.Best()
	c2, f2 := bat.Best()
	if f1 != f2 || !c1.Equal(c2, 4) {
		t.Fatalf("best diverged: %v (fit %v) vs %v (fit %v)", c1, f1, c2, f2)
	}
}

// TestBatchedTuningDeterministic: a batch-k loop reaches the same result on
// every run with the same seed — the batch composition depends only on tuner
// state at the NextBatch call, never on evaluation interleaving.
func TestBatchedTuningDeterministic(t *testing.T) {
	p := testProblem(4, 5)
	run := func() (approx.Config, float64, int) {
		tuner := New(p, Options{MaxIters: 500, StallLimit: 200, QoSMin: 88, Seed: 9})
		for !tuner.Done() {
			cfgs := tuner.NextBatch(8)
			fbs := make([]Feedback, len(cfgs))
			for i, cfg := range cfgs {
				fbs[i] = evaluate(p, cfg)
			}
			tuner.ReportBatch(cfgs, fbs)
		}
		cfg, fit := tuner.Best()
		return cfg, fit, tuner.Iterations()
	}
	c1, f1, n1 := run()
	c2, f2, n2 := run()
	if f1 != f2 || n1 != n2 || !c1.Equal(c2, 4) {
		t.Fatalf("batched runs diverged: fit %v/%v iters %d/%d", f1, f2, n1, n2)
	}
}

// TestNextBatchClampsAtMaxIters: the final batch shrinks so the search never
// evaluates past the iteration cap.
func TestNextBatchClampsAtMaxIters(t *testing.T) {
	p := testProblem(2, 3)
	tuner := New(p, Options{MaxIters: 10, StallLimit: 100, Seed: 3})
	report := func(cfgs []approx.Config) {
		fbs := make([]Feedback, len(cfgs))
		for i, cfg := range cfgs {
			fbs[i] = evaluate(p, cfg)
		}
		tuner.ReportBatch(cfgs, fbs)
	}
	first := tuner.NextBatch(8)
	if len(first) != 8 {
		t.Fatalf("first batch: %d proposals, want 8", len(first))
	}
	report(first)
	second := tuner.NextBatch(8)
	if len(second) != 2 {
		t.Fatalf("final batch: %d proposals, want 2 (clamped to MaxIters)", len(second))
	}
	report(second)
	if tuner.Iterations() != 10 {
		t.Fatalf("iterations %d, want exactly MaxIters", tuner.Iterations())
	}
	if !tuner.Done() {
		t.Fatal("tuner not done at the cap")
	}
}

// TestReportBatchArityPanics: feedback must match the preceding NextBatch.
func TestReportBatchArityPanics(t *testing.T) {
	p := testProblem(2, 3)
	tuner := New(p, Options{MaxIters: 10, Seed: 3})
	cfgs := tuner.NextBatch(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	tuner.ReportBatch(cfgs, make([]Feedback, 2))
}
