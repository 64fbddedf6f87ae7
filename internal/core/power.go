package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/pareto"
)

// PowerGovernor extends the runtime phase to power-capped operation —
// §5's system monitor tracks "load, power, and frequency variations";
// this controller closes the loop on a power budget: it clocks the device
// down to the highest DVFS step whose busy-state system power fits the
// cap, and lets the approximation runtime tuner win back the lost
// performance by moving along the shipped tradeoff curve.
type PowerGovernor struct {
	dev    *device.Device
	rt     *RuntimeTuner
	costs  []graph.NodeCost
	capW   float64
	ladder []float64
}

// NewPowerGovernor builds a governor over a device, a runtime tuner and
// the program's cost table. capW is the system power budget in watts;
// ladder is the DVFS frequency list (device.Freqs for the TX2 GPU).
func NewPowerGovernor(dev *device.Device, rt *RuntimeTuner, costs []graph.NodeCost, capW float64, ladder []float64) (*PowerGovernor, error) {
	if dev == nil || rt == nil {
		return nil, fmt.Errorf("core: power governor needs a device and a runtime tuner")
	}
	if capW <= 0 {
		return nil, fmt.Errorf("core: bad power cap %v W", capW)
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("core: power governor needs a DVFS ladder")
	}
	return &PowerGovernor{dev: dev, rt: rt, costs: costs, capW: capW, ladder: ladder}, nil
}

// SetCap retargets the power budget (e.g. battery-saver engaged).
func (g *PowerGovernor) SetCap(capW float64) {
	if capW > 0 {
		g.capW = capW
	}
}

// Step performs one control iteration: clamp frequency under the cap,
// simulate one invocation under the runtime tuner's current
// configuration, feed the measurement back, and report what happened.
func (g *PowerGovernor) Step() StepReport {
	// Highest frequency whose busy system power fits the cap.
	chosen := g.ladder[len(g.ladder)-1]
	for _, f := range g.ladder {
		g.dev.SetFrequencyMHz(f)
		_, _, sys := g.dev.Rails()
		if sys <= g.capW {
			chosen = f
			break
		}
	}
	g.dev.SetFrequencyMHz(chosen)
	pt, idx := g.rt.Acquire()
	t := g.dev.Time(g.costs, pt.Config)
	_, _, sys := g.dev.Rails()
	g.rt.RecordInvocationAt(idx, t)
	return StepReport{
		FreqMHz: chosen,
		SysW:    sys,
		Time:    t,
		Point:   pt,
		OverCap: sys > g.capW,
		EnergyJ: g.dev.Energy(g.costs, pt.Config),
	}
}

// StepReport summarizes one governor iteration.
type StepReport struct {
	FreqMHz float64
	SysW    float64
	Time    float64
	EnergyJ float64
	Point   pareto.Point
	// OverCap is true when even the lowest DVFS step exceeds the budget.
	OverCap bool
}
