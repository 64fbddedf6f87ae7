// Package core implements ApproxTuner's primary contribution: the
// three-phase accuracy-aware tuning pipeline of §2.2 —
//
//   - development-time predictive tuning (Algorithm 1) building a relaxed
//     tradeoff curve PSε over hardware-independent approximations,
//   - install-time refinement with real device measurements plus
//     distributed predictive tuning over hardware-specific knobs
//     (the PROMISE accelerator), and
//   - run-time adaptation that picks configurations off the shipped curve
//     to hold a performance target under DVFS-induced slowdowns.
//
// Each step of Algorithm 1 is written once (devtime.go): searchShortlist
// calibrates Π, searches with it and keeps the ε1-shortlist for development
// time and install time alike; search is the only autotuning loop, scored
// by prediction or by measurement; validate is the only place a
// configuration's real QoS is held against QoS_min. The §4 install-time
// protocol is four exported per-unit steps (install.go: ProfileShard,
// SearchShortlist, ValidateSlice, FinalCurve) that InstallTune runs on
// goroutines and internal/distrib carries over HTTP, with identical
// results. The device model enters tuning through measurePerf alone.
//
// Programs are abstracted behind the Program interface so both plain CNN
// graphs and composite pipelines (CNN + Canny with a multi-metric QoS) are
// tunable.
package core

import (
	"errors"
	"fmt"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// InputSet selects which inputs a program runs on: the calibration set
// drives profiling/tuning/validation, the test set drives reported
// results (§6: 5K/5K split).
type InputSet int

const (
	Calib InputSet = iota
	Test
)

// Program is a tunable tensor program.
type Program interface {
	Name() string
	// Ops lists the approximable operations (the domain of a Config).
	Ops() []int
	// OpClass gives the knob class of an op.
	OpClass(op int) approx.OpClass
	// Run executes the program under cfg on the chosen input set and
	// returns the raw output tensor. rng feeds PROMISE noise injection
	// and may be nil for configurations without hardware knobs.
	Run(cfg approx.Config, set InputSet, rng *tensor.RNG) *tensor.Tensor
	// Score computes the program's QoS for an output of the given set.
	Score(set InputSet, out *tensor.Tensor) float64
	// Costs returns the baseline per-node operation counts for the
	// calibration batch (performance prediction and device timing).
	Costs() []graph.NodeCost
	// FixedOutputShape reports whether raw outputs always have the same
	// shape (required by Π1, §8).
	FixedOutputShape() bool
}

// Prepacker is an optional Program capability: build the pack-once
// operands (packed weight panels, FP16 copies) before tuning starts,
// recording the work under the caller's observability span so the
// pack_cache prepass is visible in traces.
type Prepacker interface {
	Prepack(parent *obs.Span)
}

// SuffixRunner is an optional fast path for profile collection: running
// the program with a single op approximated by re-executing only the
// graph suffix below that op.
type SuffixRunner interface {
	RunSuffix(op int, knob approx.KnobID, set InputSet, rng *tensor.RNG) *tensor.Tensor
}

// TracedRunner is an optional Program capability: execute under a parent
// observability span so the execution (and, budget permitting, its
// per-node kernels) appears in the trace nested under the caller's phase.
type TracedRunner interface {
	RunTraced(cfg approx.Config, set InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor
}

// TracedSuffixRunner is the traced variant of SuffixRunner.
type TracedSuffixRunner interface {
	RunSuffixTraced(op int, knob approx.KnobID, set InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor
}

// GraphProgram adapts a dataflow graph plus calibration/test inputs and
// QoS metrics to the Program interface. It caches baseline node values per
// input set to accelerate profile collection.
type GraphProgram struct {
	Graph       *graph.Graph
	CalibIn     *tensor.Tensor
	TestIn      *tensor.Tensor
	CalibMetric qos.Metric
	TestMetric  qos.Metric

	// CalibMetricFor, when set, builds the QoS metric for a calibration
	// shard [lo, hi) and enables distributed install-time tuning (the
	// Sharder interface).
	CalibMetricFor func(lo, hi int) qos.Metric

	costs     []graph.NodeCost
	baseCalib []*tensor.Tensor
	baseTest  []*tensor.Tensor
}

// NewGraphProgram builds the adapter and precomputes baseline caches and
// cost tables. The graph is statically validated (structure and shape
// consistency) before any tensor work happens, so a malformed graph fails
// at program load with the full list of problems rather than mid-tuning.
func NewGraphProgram(g *graph.Graph, calibIn, testIn *tensor.Tensor, calibMetric, testMetric qos.Metric) (*GraphProgram, error) {
	if verrs := g.ValidateDeep(calibIn.Shape()); len(verrs) > 0 {
		return nil, fmt.Errorf("core: graph %q failed static validation: %w", g.Name, errors.Join(verrs...))
	}
	costs, err := g.Costs(calibIn.Shape())
	if err != nil {
		return nil, err
	}
	// Mark the long-lived tensors cacheable: constant weights (packed
	// panels, sampled filters, FP16 copies) and the calibration/test
	// batches (FP16 copies) are reused across thousands of tuning
	// executions, so they keep the operands derived from them.
	g.PrepackWeights()
	calibIn.MarkCacheable()
	testIn.MarkCacheable()
	return &GraphProgram{
		Graph:       g,
		CalibIn:     calibIn,
		TestIn:      testIn,
		CalibMetric: calibMetric,
		TestMetric:  testMetric,
		costs:       costs,
	}, nil
}

// Name implements Program.
func (p *GraphProgram) Name() string { return p.Graph.Name }

// Ops implements Program.
func (p *GraphProgram) Ops() []int { return p.Graph.ApproxOps() }

// OpClass implements Program.
func (p *GraphProgram) OpClass(op int) approx.OpClass { return p.Graph.Nodes[op].Kind.Class() }

// Costs implements Program.
func (p *GraphProgram) Costs() []graph.NodeCost { return p.costs }

// FixedOutputShape implements Program: plain graphs always produce
// fixed-shape outputs.
func (p *GraphProgram) FixedOutputShape() bool { return true }

func (p *GraphProgram) input(set InputSet) *tensor.Tensor {
	if set == Test {
		return p.TestIn
	}
	return p.CalibIn
}

// Run implements Program.
func (p *GraphProgram) Run(cfg approx.Config, set InputSet, rng *tensor.RNG) *tensor.Tensor {
	return p.Graph.Execute(p.input(set), cfg, graph.ExecOptions{RNG: rng})
}

// RunTraced implements TracedRunner.
func (p *GraphProgram) RunTraced(cfg approx.Config, set InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	return p.Graph.Execute(p.input(set), cfg, graph.ExecOptions{RNG: rng, Trace: parent})
}

// Score implements Program.
func (p *GraphProgram) Score(set InputSet, out *tensor.Tensor) float64 {
	if set == Test {
		return p.TestMetric.Score(out)
	}
	return p.CalibMetric.Score(out)
}

// baseVals returns (computing once) the cached baseline node values.
// The values are marked cacheable: suffix re-execution feeds the same
// baseline activations into approximated nodes over and over, so their
// FP16 copies are worth memoizing too.
func (p *GraphProgram) baseVals(set InputSet) []*tensor.Tensor {
	if set == Test {
		if p.baseTest == nil {
			p.baseTest = markAll(p.Graph.ExecuteAll(p.TestIn, nil, graph.ExecOptions{}))
		}
		return p.baseTest
	}
	if p.baseCalib == nil {
		p.baseCalib = markAll(p.Graph.ExecuteAll(p.CalibIn, nil, graph.ExecOptions{}))
	}
	return p.baseCalib
}

func markAll(vals []*tensor.Tensor) []*tensor.Tensor {
	for _, v := range vals {
		if v != nil {
			v.MarkCacheable()
		}
	}
	return vals
}

// Prepack implements Prepacker: it marks every constant weight cacheable
// and eagerly builds the packed panels both precisions will reuse, so the
// first tuning executions start warm. The
// work is recorded as a pack_cache:prepack span under the caller's phase.
func (p *GraphProgram) Prepack(parent *obs.Span) {
	sp := parent.Child("pack_cache:prepack")
	n := p.Graph.PrepackWeights()
	sp.With("entries", n).End()
}

// RunSuffix implements SuffixRunner: only the graph below op re-executes.
func (p *GraphProgram) RunSuffix(op int, knob approx.KnobID, set InputSet, rng *tensor.RNG) *tensor.Tensor {
	base := p.baseVals(set)
	cfg := approx.Config{op: knob}
	return p.Graph.ExecuteFrom(base, op, cfg, graph.ExecOptions{RNG: rng})
}

// RunSuffixTraced implements TracedSuffixRunner.
func (p *GraphProgram) RunSuffixTraced(op int, knob approx.KnobID, set InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	base := p.baseVals(set)
	cfg := approx.Config{op: knob}
	return p.Graph.ExecuteFrom(base, op, cfg, graph.ExecOptions{RNG: rng, Trace: parent})
}

// BaselineOut returns the cached exact output tensor for a set.
func (p *GraphProgram) BaselineOut(set InputSet) *tensor.Tensor {
	vals := p.baseVals(set)
	return vals[p.Graph.Output]
}

// NumCalib implements Sharder: the number of calibration inputs.
func (p *GraphProgram) NumCalib() int { return p.CalibIn.Dim(0) }

// Shard implements Sharder: a program over calibration inputs [lo, hi).
// It requires CalibMetricFor to rebuild the QoS metric for the shard.
func (p *GraphProgram) Shard(lo, hi int) (Program, error) {
	if p.CalibMetricFor == nil {
		return nil, fmt.Errorf("core: program %q has no shard metric factory", p.Name())
	}
	n := p.NumCalib()
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("core: bad shard [%d,%d) of %d", lo, hi, n)
	}
	per := p.CalibIn.Elems() / n
	sub := tensor.FromSlice(p.CalibIn.Data()[lo*per:hi*per],
		append([]int{hi - lo}, p.CalibIn.Shape().Dims()[1:]...)...)
	return NewGraphProgram(p.Graph, sub, p.TestIn, p.CalibMetricFor(lo, hi), p.TestMetric)
}

// KnobPolicy filters the knob candidates offered to the tuner.
type KnobPolicy struct {
	// IncludeHardware adds hardware-specific knobs (PROMISE) — install
	// time only.
	IncludeHardware bool
	// AllowFP16 includes half-precision knob variants; §3.5 ships separate
	// FP32 and FP16 curves since FP16 hardware availability is unknown at
	// development time.
	AllowFP16 bool
	// Filter, when set, further restricts the space to knobs it accepts
	// (the baseline FP32 knob is always kept). Used by ablation studies,
	// e.g. offset-0-only sampling/perforation.
	Filter func(approx.Knob) bool
}

// KnobsFor returns the candidate knob IDs for one op of a program under
// the policy.
func KnobsFor(p Program, op int, pol KnobPolicy) []approx.KnobID {
	ids := approx.KnobsFor(p.OpClass(op), pol.IncludeHardware)
	out := make([]approx.KnobID, 0, len(ids))
	for _, id := range ids {
		k := approx.MustLookup(id)
		if !pol.AllowFP16 && k.Prec == tensorops.FP16 && k.Kind != approx.KindPromise {
			continue
		}
		if pol.Filter != nil && !k.IsBaseline() && !pol.Filter(k) {
			continue
		}
		out = append(out, id)
	}
	return out
}
