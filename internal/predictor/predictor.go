// Package predictor implements the paper's predictive
// approximation-tuning machinery (§3.2–3.4): the per-(op, knob) QoS
// profiles, the two error-composition models Π1 (tensor-level: sum the ΔT
// raw-output error tensors onto the baseline output, then apply the QoS
// function) and Π2 (scalar-level: sum the ΔQ end-to-end QoS losses), the
// single-coefficient α regression that adapts each model to a program's
// error propagation, and the hardware-agnostic performance prediction
// model of Eq. 3.
package predictor

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Key identifies one profile entry.
type Key struct {
	Op   int
	Knob approx.KnobID
}

// Profiles holds the one-time error profiles of §3.2: for every (op, knob)
// pair, the end-to-end QoS change ΔQ and (optionally, for Π1) the change
// ΔT in the program's raw tensor output, both measured on the calibration
// inputs with only that single operator approximated.
type Profiles struct {
	BaseQoS float64        // QoS_base: exact-execution QoS on calibration inputs
	BaseOut *tensor.Tensor // T_base: exact raw output (nil when Π1 unsupported)
	DeltaQ  map[Key]float64
	DeltaT  map[Key]*tensor.Tensor
}

// NewProfiles returns empty tables.
func NewProfiles(baseQoS float64, baseOut *tensor.Tensor) *Profiles {
	return &Profiles{
		BaseQoS: baseQoS,
		BaseOut: baseOut,
		DeltaQ:  make(map[Key]float64),
		DeltaT:  make(map[Key]*tensor.Tensor),
	}
}

// Add records a profile entry. deltaT may be nil for Π2-only programs.
func (p *Profiles) Add(op int, knob approx.KnobID, deltaQ float64, deltaT *tensor.Tensor) {
	k := Key{op, knob}
	p.DeltaQ[k] = deltaQ
	if deltaT != nil {
		p.DeltaT[k] = deltaT
	}
}

// SupportsPi1 reports whether tensor-level profiles exist (Π1 requires
// fixed-shape raw outputs, §8).
func (p *Profiles) SupportsPi1() bool { return p.BaseOut != nil && len(p.DeltaT) > 0 }

// Merge combines profiles collected on different calibration shards
// (distributed install-time tuning, §4): ΔQ values are averaged ("taking
// the mean of ΔQ") and, when every shard carries tensor-level profiles,
// the ΔT tensors and baseline outputs are concatenated along the batch
// dimension ("concatenating the ΔT together") — reassembling full-set
// tensors when the shards partition the calibration inputs in order.
func Merge(shards []*Profiles) *Profiles {
	if len(shards) == 0 {
		panic("predictor: no shards to merge")
	}
	out := NewProfiles(0, nil)
	var baseQoS float64
	for _, s := range shards {
		baseQoS += s.BaseQoS
	}
	out.BaseQoS = baseQoS / float64(len(shards))
	counts := make(map[Key]int)
	for _, s := range shards {
		for k, dq := range s.DeltaQ {
			out.DeltaQ[k] += dq
			counts[k]++
		}
	}
	for k := range out.DeltaQ {
		out.DeltaQ[k] /= float64(counts[k])
	}

	// Tensor-level merge: concatenate per-shard ΔT (and base outputs) by
	// rows when all shards provide them for the same keys.
	if allHaveTensors(shards) {
		bases := make([]*tensor.Tensor, len(shards))
		for i, s := range shards {
			bases[i] = s.BaseOut
		}
		out.BaseOut = concatRows(bases)
		for k := range shards[0].DeltaT {
			parts := make([]*tensor.Tensor, 0, len(shards))
			ok := true
			for _, s := range shards {
				dt, have := s.DeltaT[k]
				if !have {
					ok = false
					break
				}
				parts = append(parts, dt)
			}
			if ok {
				out.DeltaT[k] = concatRows(parts)
			}
		}
	}
	return out
}

func allHaveTensors(shards []*Profiles) bool {
	for _, s := range shards {
		if s.BaseOut == nil || len(s.DeltaT) == 0 {
			return false
		}
	}
	return true
}

// concatRows stacks (n_i, K) tensors into a (Σn_i, K) tensor.
func concatRows(parts []*tensor.Tensor) *tensor.Tensor {
	totalRows, k := 0, parts[0].Dim(parts[0].Rank()-1)
	for _, p := range parts {
		totalRows += p.Elems() / k
	}
	data := make([]float32, 0, totalRows*k)
	for _, p := range parts {
		data = append(data, p.Data()...)
	}
	return tensor.FromSlice(data, totalRows, k)
}

// Model selects an error-composition model.
type Model int

const (
	Pi1 Model = iota + 1
	Pi2
)

func (m Model) String() string {
	if m == Pi1 {
		return "Π1"
	}
	return "Π2"
}

// QoSPredictor predicts end-to-end QoS for arbitrary configurations from
// the profiles. The scoreFn is the program's QoS function applied to a raw
// output tensor (needed by Π1 only).
type QoSPredictor struct {
	Model    Model
	Profiles *Profiles
	Alpha    float64
	ScoreFn  func(out *tensor.Tensor) float64
}

// NewQoSPredictor builds a predictor with α = 1 (uncalibrated).
func NewQoSPredictor(m Model, p *Profiles, scoreFn func(*tensor.Tensor) float64) *QoSPredictor {
	if m == Pi1 && !p.SupportsPi1() {
		panic("predictor: Π1 requires tensor-level profiles")
	}
	if m == Pi1 && scoreFn == nil {
		panic("predictor: Π1 requires a QoS score function")
	}
	return &QoSPredictor{Model: m, Profiles: p, Alpha: 1, ScoreFn: scoreFn}
}

// Predict estimates the end-to-end QoS of a configuration.
func (q *QoSPredictor) Predict(cfg approx.Config) float64 {
	switch q.Model {
	case Pi1:
		mPi1Evals.Inc()
		return q.predict1(cfg, q.Alpha)
	case Pi2:
		mPi2Evals.Inc()
		return q.predict2(cfg, q.Alpha)
	default:
		panic(fmt.Sprintf("predictor: unknown model %d", q.Model))
	}
}

// sortedOps appends cfg's op IDs to buf in ascending order. The predictors
// sum one profile term per op in floating point, where order changes the
// last bits, and Go randomizes map iteration: summed in map order, two runs
// of one seed could disagree by an ulp, flip a comparison in the search and
// ship different curves. Ascending op order makes a prediction a function
// of the configuration alone.
func sortedOps(cfg approx.Config, buf []int) []int {
	for op := range cfg {
		buf = append(buf, op)
	}
	slices.Sort(buf)
	return buf
}

// predict1 implements Π1(config) = QoS(T_base + α·Σ ΔT(op, knob)).
func (q *QoSPredictor) predict1(cfg approx.Config, alpha float64) float64 {
	sum := q.Profiles.BaseOut.Clone()
	var buf [32]int
	for _, op := range sortedOps(cfg, buf[:0]) {
		knob := cfg[op]
		if knob == approx.KnobFP32 {
			continue
		}
		dt, ok := q.Profiles.DeltaT[Key{op, knob}]
		if !ok {
			continue // unprofiled pair contributes no predicted error
		}
		sum.AddScaled(float32(alpha), dt)
	}
	return q.ScoreFn(sum)
}

// predict2 implements Π2(config) = QoS_base + α·Σ ΔQ(op, knob).
func (q *QoSPredictor) predict2(cfg approx.Config, alpha float64) float64 {
	s := q.Profiles.BaseQoS
	var buf [32]int
	for _, op := range sortedOps(cfg, buf[:0]) {
		knob := cfg[op]
		if knob == approx.KnobFP32 {
			continue
		}
		s += float64(alpha * q.Profiles.DeltaQ[Key{op, knob}])
	}
	return s
}

// Sample couples a configuration with its empirically measured QoS, for α
// calibration.
type Sample struct {
	Cfg approx.Config
	QoS float64
}

// Calibrate fits α to the measured samples (§3.3 "Predictor Calibration
// using Regression"). For Π2 the model is linear in α and closed-form
// least squares applies; for Π1 the QoS function makes it nonlinear, so a
// golden-section-style grid refinement over α ∈ [0, 4] minimizes the
// squared error. Returns the fitted α (also stored on the predictor).
func (q *QoSPredictor) Calibrate(samples []Sample) float64 {
	if len(samples) == 0 {
		return q.Alpha
	}
	switch q.Model {
	case Pi2:
		// real - base ≈ α · S where S = Σ ΔQ: α* = Σ S·y / Σ S².
		var num, den float64
		for _, s := range samples {
			sum := q.predict2(s.Cfg, 1) - q.Profiles.BaseQoS
			y := s.QoS - q.Profiles.BaseQoS
			num += float64(sum * y)
			den += float64(sum * sum)
		}
		if den > 1e-12 {
			q.Alpha = num / den
		}
		if q.Alpha <= 0 {
			q.Alpha = 1 // degenerate fit; fall back to the raw model
		}
	case Pi1:
		bestA, bestErr := 1.0, math.Inf(1)
		lo, hi := 0.0, 4.0
		for pass := 0; pass < 3; pass++ {
			const steps = 9
			for i := 0; i <= steps; i++ {
				a := lo + (hi-lo)*float64(i)/steps
				var sse float64
				for _, s := range samples {
					d := q.predict1(s.Cfg, a) - s.QoS
					sse += float64(d * d)
				}
				if sse < bestErr {
					bestErr, bestA = sse, a
				}
			}
			span := (hi - lo) / steps
			lo, hi = math.Max(0, bestA-span), bestA+span
		}
		q.Alpha = bestA
	}
	q.observeCalibration(samples)
	return q.Alpha
}

// PerfPredictor is the hardware-agnostic performance model of §3.4:
// CostTotal(config) = Σ_(op,knob) Nm(op)/Rm(knob) + Nc(op)/Rc(knob).
// It reports predicted Perf as the speedup of a configuration's cost over
// the baseline cost, which ranks configurations correctly even though it
// is not a wall-clock estimate.
//
// Nm here counts the memory *operations the kernel performs* — roughly
// one operand load per compute operation in a MAC-style kernel — rather
// than unique DRAM traffic (which is what the device timing model uses).
// This matches §3.4's worked example, where halving the loads via FP16
// meaningfully reduces the operator's cost: with unique-traffic counts the
// memory term of a convolution would be negligible next to Nc and the
// model would (wrongly) predict FP16 to be free of benefit.
type PerfPredictor struct {
	costs    []graph.NodeCost
	baseline float64
}

// memOps converts a node's cost entry to the kernel memory-operation
// count used by this model.
func memOps(c graph.NodeCost) float64 {
	if c.Nc > c.Nm {
		return c.Nc // MAC-style kernel: ~1 load per compute op
	}
	return c.Nm
}

// NewPerfPredictor builds the model from the program's baseline op counts.
func NewPerfPredictor(costs []graph.NodeCost) *PerfPredictor {
	var base float64
	for _, c := range costs {
		base += c.Nc + memOps(c)
	}
	if base <= 0 {
		panic("predictor: program has zero cost")
	}
	return &PerfPredictor{costs: costs, baseline: base}
}

// Cost returns CostTotal(config) in abstract operation units.
func (p *PerfPredictor) Cost(cfg approx.Config) float64 {
	var total float64
	for _, c := range p.costs {
		// analytic cost rows are exactly zero for free ops (input, flatten)
		if c.Nc == 0 && c.Nm == 0 {
			continue
		}
		rc, rm := approx.CostFactors(cfg.Knob(c.ID))
		total += c.Nc/rc + memOps(c)/rm
	}
	return total
}

// Predict returns the predicted speedup of cfg over the baseline.
func (p *PerfPredictor) Predict(cfg approx.Config) float64 {
	return p.baseline / p.Cost(cfg)
}
