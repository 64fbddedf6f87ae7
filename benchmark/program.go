package main

import (
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// tunable is everything core's tuners look for on a program: the Program
// interface plus every optional capability they type-assert. The
// decorator below must offer all of them, or wrapping a program would
// silently change which code path tunes it.
type tunable interface {
	core.Program
	core.Prepacker
	core.SuffixRunner
	core.TracedRunner
	core.TracedSuffixRunner
	core.Sharder
}

// timedProgram wraps a program and times every call the tuners make into
// it — the boundary between core (search, prediction, curve building) and
// graph/tensorops (execution) — as program.run and program.score spans.
// Shards are wrapped too, so the edge runs of install-time tuning are seen.
type timedProgram struct {
	inner  tunable
	rec    *recorder
	parent *span // the open tuning-phase span runs are recorded under
	op     int64
}

func newTimedProgram(inner tunable, rec *recorder, op int64) *timedProgram {
	return &timedProgram{inner: inner, rec: rec, parent: new(span), op: op}
}

func (p *timedProgram) timeRun(run func() *tensor.Tensor) *tensor.Tensor {
	sp := p.rec.start("program.run", *p.parent, p.op)
	out := run()
	sp.end()
	return out
}

func (p *timedProgram) Name() string                  { return p.inner.Name() }
func (p *timedProgram) Ops() []int                    { return p.inner.Ops() }
func (p *timedProgram) OpClass(op int) approx.OpClass { return p.inner.OpClass(op) }
func (p *timedProgram) Costs() []graph.NodeCost       { return p.inner.Costs() }
func (p *timedProgram) FixedOutputShape() bool        { return p.inner.FixedOutputShape() }
func (p *timedProgram) NumCalib() int                 { return p.inner.NumCalib() }
func (p *timedProgram) Prepack(parent *obs.Span)      { p.inner.Prepack(parent) }

func (p *timedProgram) Run(cfg approx.Config, set core.InputSet, rng *tensor.RNG) *tensor.Tensor {
	return p.timeRun(func() *tensor.Tensor { return p.inner.Run(cfg, set, rng) })
}

func (p *timedProgram) RunTraced(cfg approx.Config, set core.InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	return p.timeRun(func() *tensor.Tensor { return p.inner.RunTraced(cfg, set, rng, parent) })
}

func (p *timedProgram) RunSuffix(op int, knob approx.KnobID, set core.InputSet, rng *tensor.RNG) *tensor.Tensor {
	return p.timeRun(func() *tensor.Tensor { return p.inner.RunSuffix(op, knob, set, rng) })
}

func (p *timedProgram) RunSuffixTraced(op int, knob approx.KnobID, set core.InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	return p.timeRun(func() *tensor.Tensor { return p.inner.RunSuffixTraced(op, knob, set, rng, parent) })
}

func (p *timedProgram) Score(set core.InputSet, out *tensor.Tensor) float64 {
	sp := p.rec.start("program.score", *p.parent, p.op)
	q := p.inner.Score(set, out)
	sp.end()
	return q
}

// Shard wraps the shard so its runs are recorded under the same span.
func (p *timedProgram) Shard(lo, hi int) (core.Program, error) {
	sh, err := p.inner.Shard(lo, hi)
	if err != nil {
		return nil, err
	}
	t, ok := sh.(tunable)
	if !ok {
		return sh, nil
	}
	w := *p
	w.inner = t
	return &w, nil
}
