// Package promise is a functional simulator of the PROMISE programmable
// analog in-memory compute accelerator (Srivastava et al., ISCA 2018) as
// used by the paper: convolutions and matrix multiplications can be
// offloaded to it, and its analog voltage swing introduces normally
// distributed errors in the output values. Seven voltage levels P1–P7 are
// exposed as knobs, in increasing order of voltage (energy) and decreasing
// error; no level is exact.
//
// The paper itself evaluated PROMISE through a functional simulator plus a
// validated timing/energy model (§6.3) — this package plays exactly that
// role. The error magnitudes and the energy/throughput advantages
// (3.4–5.5× less energy, 1.4–3.4× higher throughput than a digital
// accelerator) follow the figures cited in §2.3.
package promise

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Noise-injection telemetry: how often the functional simulator perturbs
// an operator output, at which voltage level, over how many elements, and
// the distribution of injected absolute σ values.
var (
	mPerturbs  = obs.NewCounter("promise.perturbations")
	mElems     = obs.NewCounter("promise.elements_perturbed")
	hSigma     = obs.NewQHistogram("promise.sigma_abs")
	byLevelVec = obs.NewCounterVec("promise.perturbations_by_level")
	// levelCounters caches the per-level counters for the hot path.
	levelCounters [Levels + 1]*obs.Counter
)

func init() {
	for lvl := 1; lvl <= Levels; lvl++ {
		levelCounters[lvl] = byLevelVec.With(fmt.Sprintf("P%d", lvl))
	}
}

// Levels is the number of voltage levels (P1..P7).
const Levels = 7

// relError is the relative output error σ at each level, as a fraction of
// the output's RMS value. P1 (lowest voltage) is noisiest. The geometric
// ladder spans roughly a 8× error range, which reproduces the qualitative
// behaviour in the paper: low levels are only usable by error-tolerant
// operators, high levels are near-free.
var relError = [Levels + 1]float64{
	0,     // unused (levels are 1-based)
	0.24,  // P1
	0.17,  // P2
	0.12,  // P3
	0.085, // P4
	0.06,  // P5
	0.042, // P6
	0.03,  // P7
}

// energyReduction is the energy advantage over the digital FP32 baseline
// execution of the same operator, per level. Lower voltage saves more
// energy: P1 ≈ 5.5×, P7 ≈ 3.4× (§2.3).
var energyReduction = [Levels + 1]float64{0, 5.5, 5.15, 4.8, 4.45, 4.1, 3.75, 3.4}

// throughputGain is the speedup over the digital baseline; to first order
// the analog array's latency does not depend on the voltage swing, so a
// single mid-range constant from the cited 1.4–3.4× span is used.
const throughputGain = 2.4

// ErrorSigma returns the relative error σ for a voltage level (1..7).
func ErrorSigma(level int) float64 {
	checkLevel(level)
	return relError[level]
}

// EnergyReduction returns the energy advantage factor over digital FP32
// execution for a voltage level.
func EnergyReduction(level int) float64 {
	checkLevel(level)
	return energyReduction[level]
}

// ThroughputGain returns the speedup factor over digital FP32 execution.
func ThroughputGain(level int) float64 {
	checkLevel(level)
	return throughputGain
}

func checkLevel(level int) {
	if level < 1 || level > Levels {
		panic(fmt.Sprintf("promise: voltage level %d not in 1..%d", level, Levels))
	}
}

// Perturb simulates executing an operator on PROMISE at the given voltage
// level: it adds N(0, σ·RMS(out)) noise to every element of out in place.
// The exact digital result must already be in out (the functional
// simulator computes exactly, then injects the analog error). The supplied
// RNG makes the injected noise reproducible.
func Perturb(out *tensor.Tensor, level int, rng *tensor.RNG) {
	checkLevel(level)
	d := out.Data()
	if len(d) == 0 {
		return
	}
	var sum float64
	for _, v := range d {
		x := float64(v)
		sum += float64(x * x)
	}
	rms := math.Sqrt(sum / float64(len(d)))
	// guards division by an exactly-zero RMS (all-zero output tensor)
	if rms == 0 {
		rms = 1e-6
	}
	sigma := relError[level] * rms
	for i := range d {
		d[i] += float32(rng.NormFloat64() * sigma)
	}
	mPerturbs.Inc()
	mElems.Add(int64(len(d)))
	levelCounters[level].Inc()
	hSigma.Observe(sigma)
}

// Banks and BankKB describe the accelerator's memory organization
// (Table 2 of the paper: 256 banks × 16 KB at 1 GHz). They bound the
// operator sizes that fit on the accelerator in a single pass; larger
// operators are tiled, which the timing model folds into throughputGain.
const (
	Banks       = 256
	BankKB      = 16
	FrequencyHz = 1_000_000_000
)

// FitsWeights reports whether an operator with the given weight-element
// count fits in PROMISE's on-chip banks in one pass (2 bytes per element,
// as the array computes on 8–16 bit operands).
func FitsWeights(weightElems int) bool {
	return weightElems*2 <= Banks*BankKB*1024
}
