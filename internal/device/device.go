// Package device models the edge hardware of the paper's evaluation
// (Table 2): an NVIDIA Jetson TX2-class SoC with a GPU and a CPU sharing
// DRAM, plus the PROMISE analog accelerator on chip. The paper measured
// time and energy on real silicon; this reproduction replaces the silicon
// with an analytical roofline-style model driven by the same per-operator
// compute/memory operation counts (Nc, Nm) and per-knob reduction factors
// (Rc, Rm) that the paper's own performance predictor uses (§3.4), so the
// relative ordering of configurations — the thing the tuner consumes — is
// preserved. DVFS (the 12 GPU frequency steps of §6.4) and the GPU/DDR/SYS
// power rails of Fig. 5 are modeled so that the runtime-adaptation
// experiments exercise the identical control path.
package device

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/promise"
	"repro/internal/tensorops"
)

// Unit identifies a compute unit on the SoC.
type Unit int

const (
	GPU Unit = iota
	CPU
)

func (u Unit) String() string {
	if u == CPU {
		return "cpu"
	}
	return "gpu"
}

// Freqs is the GPU DVFS ladder used by the runtime experiments: 12
// frequencies from 1.3 GHz down to 319 MHz (§6.4), in MHz.
var Freqs = []float64{1300, 1224, 1134, 1032, 930, 828, 726, 675, 586, 497, 420, 319}

// Device is a simulated compute unit with a performance and power model.
type Device struct {
	Unit Unit
	Name string

	// Peak throughput at nominal frequency.
	computeOPS float64 // scalar float ops per second
	memOPS     float64 // tensor-element loads/stores per second
	launchOver float64 // fixed per-operator overhead, seconds

	// FP16 support: the TX2's GPU executes half precision at double rate;
	// its ARM CPU has no FP16 pipeline (§7.1), so FP16 knobs are
	// unsupported there and the FP32 tradeoff curve must be used.
	hasFP16 bool

	// Power model (watts).
	unitLeakW  float64 // leakage of this unit
	unitDynW   float64 // dynamic power at nominal frequency, full load
	ddrW       float64 // DRAM rail (frequency held constant, §7.5)
	sysBaseW   float64 // rest-of-board
	promiseOn  bool    // PROMISE present on this SoC
	freqMHz    float64
	nominalMHz float64
}

// NewTX2GPU returns the Jetson TX2 GPU model (256 CUDA cores, 1.12–1.3 GHz).
func NewTX2GPU() *Device {
	return &Device{
		Unit:       GPU,
		Name:       "tegra-tx2-gpu",
		computeOPS: 6.65e11, // ~665 GFLOP/s FP32 peak
		memOPS:     1.5e10,  // ~60 GB/s LPDDR4 over 4-byte elements
		launchOver: 1.5e-6,
		hasFP16:    true,
		unitLeakW:  0.5,
		unitDynW:   6.5,
		ddrW:       1.7,
		sysBaseW:   4.0,
		promiseOn:  true,
		freqMHz:    1300,
		nominalMHz: 1300,
	}
}

// NewTX2CPU returns the TX2 CPU model (6 ARM cores, no FP16 pipeline).
func NewTX2CPU() *Device {
	return &Device{
		Unit:       CPU,
		Name:       "tegra-tx2-cpu",
		computeOPS: 4.8e10, // ~48 GFLOP/s vectorized
		memOPS:     8e9,
		launchOver: 0.5e-6,
		hasFP16:    false,
		unitLeakW:  0.3,
		unitDynW:   3.5,
		ddrW:       1.7,
		sysBaseW:   4.0,
		promiseOn:  true,
		freqMHz:    2000,
		nominalMHz: 2000,
	}
}

// SupportsKnob reports whether the device can execute a knob at all: FP16
// variants require FP16 hardware; PROMISE knobs require the accelerator.
func (d *Device) SupportsKnob(id approx.KnobID) bool {
	return d.Supports(approx.MustLookup(id))
}

// Supports is the value-based form of SupportsKnob, usable on knob values
// under validation that may not be registered.
func (d *Device) Supports(k approx.Knob) bool {
	if k.Kind == approx.KindPromise {
		return d.promiseOn
	}
	if k.Prec == tensorops.FP16 && !d.hasFP16 {
		return false
	}
	return true
}

// SetFrequencyMHz moves the device to the given DVFS step. The frequency
// must be one of Freqs for the GPU; other values are accepted for
// experimentation but must be positive.
func (d *Device) SetFrequencyMHz(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("device: bad frequency %v", f))
	}
	d.freqMHz = f
}

// freqScale is the compute-throughput derating at the current frequency.
func (d *Device) freqScale() float64 { return d.freqMHz / d.nominalMHz }

// NodeTime returns the modeled execution time in seconds of one node under
// a knob. Compute throughput scales with DVFS frequency; memory bandwidth
// does not (DDR frequency is held constant, §7.5), which reproduces the
// sub-linear slowdowns of Fig. 6.
func (d *Device) NodeTime(c graph.NodeCost, id approx.KnobID) float64 {
	k := approx.MustLookup(id)
	if k.Kind == approx.KindPromise {
		// Offloaded to the analog accelerator; its latency does not change
		// with the host GPU's DVFS state.
		base := c.Nc/d.computeOPS + c.Nm/d.memOPS + d.launchOver
		return base / promise.ThroughputGain(k.Level)
	}
	rc, rm := approx.CostFactors(id)
	comp := float64(d.computeOPS * d.freqScale())
	if k.Prec == tensorops.FP16 && d.hasFP16 {
		comp *= 2 // double-rate half precision
	}
	return c.Nc/rc/comp + c.Nm/rm/d.memOPS + d.launchOver
}

// Time returns the modeled execution time of a whole program (one
// invocation over the batch the costs were computed for) under cfg.
func (d *Device) Time(costs []graph.NodeCost, cfg approx.Config) float64 {
	var t float64
	for _, c := range costs {
		// analytic cost rows are exactly zero for free ops (input, flatten)
		if c.Nc == 0 && c.Nm == 0 {
			continue
		}
		t += d.NodeTime(c, cfg.Knob(c.ID))
	}
	return t
}

// NodeEnergy returns the modeled energy in joules of one node under a
// knob: unit dynamic+leakage power over the op's runtime, plus a per-element
// DRAM access energy for the op's (knob-reduced) memory traffic.
func (d *Device) NodeEnergy(c graph.NodeCost, id approx.KnobID) float64 {
	k := approx.MustLookup(id)
	t := d.NodeTime(c, id)
	if k.Kind == approx.KindPromise {
		// Energy advantage of the analog array over digital execution.
		baseT := c.Nc/d.computeOPS + c.Nm/d.memOPS + d.launchOver
		baseE := float64((d.unitLeakW+d.unitDynW)*baseT) + dramEnergy(c.Nm)
		return baseE / promise.EnergyReduction(k.Level)
	}
	_, rm := approx.CostFactors(id)
	return float64(d.unitPower()*t) + dramEnergy(c.Nm/rm)
}

// Energy returns the modeled energy of a whole invocation under cfg,
// including the static board power over the invocation's runtime.
func (d *Device) Energy(costs []graph.NodeCost, cfg approx.Config) float64 {
	var e float64
	for _, c := range costs {
		// analytic cost rows are exactly zero for free ops (input, flatten)
		if c.Nc == 0 && c.Nm == 0 {
			continue
		}
		e += d.NodeEnergy(c, cfg.Knob(c.ID))
	}
	e += float64((float64(d.ddrW*0.3) + d.sysBaseW) * d.Time(costs, cfg)) // static rails
	return e
}

// dramEnergy charges ~20 pJ per 4-byte element moved, a typical LPDDR4
// figure.
func dramEnergy(elems float64) float64 { return float64(20e-12 * elems) }

// unitPower is the unit's power draw while busy at the current frequency.
// Dynamic power scales ≈ f·V² ≈ f^2 over the DVFS range.
func (d *Device) unitPower() float64 {
	s := d.freqScale()
	return d.unitLeakW + float64(d.unitDynW*math.Pow(s, 2.0))
}

// Rails reports the instantaneous busy-state power of the GPU/CPU, DDR and
// whole-system rails at the current frequency — the quantities plotted in
// Fig. 5.
func (d *Device) Rails() (unitW, ddrW, sysW float64) {
	unitW = d.unitPower()
	ddrW = d.ddrW
	sysW = unitW + ddrW + d.sysBaseW
	return
}
