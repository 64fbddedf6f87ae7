package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/tensor"
)

// Objective selects what install-time tuning optimizes on the device
// (§3.1: "tuning other goals such as energy savings by providing a
// corresponding prediction model").
type Objective int

const (
	// MinimizeTime reports Perf as a wall-clock speedup over the baseline.
	MinimizeTime Objective = iota
	// MinimizeEnergy reports Perf as an energy-reduction factor.
	MinimizeEnergy
)

func (o Objective) String() string {
	if o == MinimizeEnergy {
		return "energy"
	}
	return "time"
}

// Sharder is implemented by programs whose calibration inputs can be
// partitioned across simulated edge devices for distributed install-time
// tuning.
type Sharder interface {
	// NumCalib returns the number of calibration inputs.
	NumCalib() int
	// Shard returns a Program whose calibration set is inputs [lo, hi).
	Shard(lo, hi int) (Program, error)
}

// InstallOptions configures the install-time phase.
type InstallOptions struct {
	Options
	// Device is the edge compute unit performance/energy model.
	Device *device.Device
	// Objective selects time vs energy optimization.
	Objective Objective
	// NEdge is the number of edge devices participating in distributed
	// tuning (the paper emulates 100; default 4).
	NEdge int
}

var errNoDevice = errors.New("core: install-time tuning requires a device model")

func errCannotShard(p Program, nEdge int) error {
	return fmt.Errorf("core: program %q cannot shard calibration inputs for %d edge devices", p.Name(), nEdge)
}

// installPolicy is the knob space install time adds the hardware knobs to.
func (o InstallOptions) installPolicy() KnobPolicy {
	return KnobPolicy{IncludeHardware: true, AllowFP16: o.Policy.AllowFP16}
}

// InstallStats extends tuning stats with the distributed-phase timings of
// §7.4 (edge profile collection vs server autotuning).
type InstallStats struct {
	Stats
	EdgeProfileTime time.Duration // wall-clock of the parallel edge phase
	ServerTuneTime  time.Duration
	ValidatePerEdge int
}

// InstallResult is the outcome of install-time tuning.
type InstallResult struct {
	Curve *pareto.Curve
	Stats InstallStats
}

// measurePerf returns the device-measured Perf of cfg relative to the
// exact baseline under the chosen objective. It is where the device model
// enters tuning: the energy search objective and every install-time
// validation read it, and nothing else asks the device.
func measurePerf(p Program, dev *device.Device, obj Objective, cfg approx.Config) float64 {
	costs := p.Costs()
	if obj == MinimizeEnergy {
		return dev.Energy(costs, nil) / dev.Energy(costs, cfg)
	}
	return dev.Time(costs, nil) / dev.Time(costs, cfg)
}

// deviceSupports reports whether a device can execute every knob of a
// configuration.
func deviceSupports(dev *device.Device, cfg approx.Config) bool {
	for _, kid := range cfg {
		if !dev.SupportsKnob(kid) {
			return false
		}
	}
	return true
}

// RefineCurve is the software-only install-time path (§4): it re-measures
// every configuration of the development-time curve on the target device
// — both real performance and real QoS — filters the ones that miss the
// QoS threshold or that the device cannot execute (e.g. FP16 knobs on the
// TX2's CPU), and returns the refined Pareto curve PS(S*).
func RefineCurve(p Program, devCurve *pareto.Curve, o InstallOptions) (*InstallResult, error) {
	o.Options = o.Options.norm()
	if o.Device == nil {
		return nil, errNoDevice
	}
	root := obs.Start("phase:install").
		With("program", p.Name()).With("mode", "refine").
		With("device", o.Device.Name).With("objective", o.Objective.String())
	defer root.End()
	watch := NewStopwatch()
	var st InstallStats
	rsp := root.Child("refine").With("curve_points", len(devCurve.Points))
	pts, ran := validate(p, p, devCurve.Points, 0, 1, tensor.NewRNG(o.Seed+100), o, rsp)
	st.RawConfigs, st.Validated = ran, len(pts)
	rsp.With("validated", st.Validated).End()
	st.Total = watch.Lap()
	curve := pareto.NewCurve(p.Name(), devCurve.BaselineQoS, pts)
	curve.BaselineTime = o.Device.Time(p.Costs(), nil)
	return &InstallResult{Curve: curve, Stats: st}, nil
}

// InstallTune is the hardware-knob install-time path (§4): distributed
// predictive tuning. The edge devices (goroutine-simulated) collect QoS
// profiles for hardware-specific knobs on disjoint calibration shards; a
// central server merges the profiles with the development-time software
// profiles and runs a fresh predictive autotuning over the combined knob
// space; the shortlist is scattered back to the edge devices for
// validation and performance/energy measurement; and the server computes
// the final curve PS(S*₁ ∪ … ∪ S*ₙ).
//
// An edge's seeds come from its unit number, never from the goroutine
// that runs it, so the curve is independent of scheduling.
func InstallTune(p Program, devProfiles *predictor.Profiles, o InstallOptions) (*InstallResult, error) {
	o.Options = o.Options.norm()
	if o.NEdge == 0 {
		o.NEdge = 4
	}
	if o.Device == nil {
		return nil, errNoDevice
	}
	if _, ok := p.(Sharder); !ok && o.NEdge > 1 {
		return nil, errCannotShard(p, o.NEdge)
	}
	root := obs.Start("phase:install").
		With("program", p.Name()).With("mode", "distributed").
		With("device", o.Device.Name).With("objective", o.Objective.String()).With("edges", o.NEdge)
	defer root.End()
	watch := NewStopwatch()
	var st InstallStats

	// Step 1, on every edge: collect the QoS profiles of the
	// hardware-specific knobs on the edge's calibration shard.
	esp := root.Child("edge-profile")
	shards := make([]*predictor.Profiles, o.NEdge)
	err := eachEdge(o.NEdge, func(e int) (err error) {
		ssp := esp.Child("edge-shard").With("edge", e)
		defer ssp.End()
		shards[e], err = profileShard(p, o, e, ssp)
		return err
	})
	esp.End()
	if err != nil {
		return nil, err
	}
	st.EdgeProfileTime = watch.Lap()

	// Step 2, on the server: merge the shard profiles (mean ΔQ,
	// concatenated ΔT), lay them over the development-time software
	// profiles, and run steps 2–4 of Algorithm 1 over the combined knob
	// space.
	tsp := root.Child("server-tune")
	hw := shards[0]
	if o.NEdge > 1 {
		hw = predictor.Merge(shards)
	}
	so := o.Options
	so.Policy = o.installPolicy()
	if o.Objective == MinimizeEnergy {
		// For energy the search ranks by the device's energy model (the
		// "corresponding prediction model" of §3.1); for time it keeps the
		// hardware-agnostic Eq. 3 ranking.
		so.PerfModel = func(cfg approx.Config) float64 { return measurePerf(p, o.Device, MinimizeEnergy, cfg) }
	}
	candidates, err := searchShortlist(p, combineProfiles(devProfiles, hw), so, tensor.NewRNG(o.Seed+400), tsp, NewStopwatch(), &st.Stats)
	tsp.With("shortlist", len(candidates)).End()
	if err != nil {
		return nil, err
	}
	st.ServerTuneTime = watch.Lap()

	// Step 3, on every edge: measure real QoS on the edge's shard, and
	// perf/energy on the device, for its share candidates[e],
	// candidates[e+NEdge], … and keep the local Pareto set.
	vsp := root.Child("edge-validate").With("shortlist", len(candidates))
	edgeSets := make([][]pareto.Point, o.NEdge)
	err = eachEdge(o.NEdge, func(e int) error {
		edgeSpan := vsp.Child("edge").With("edge", e)
		defer edgeSpan.End()
		local, err := edgeProgram(p, e, o.NEdge)
		if err != nil {
			return err
		}
		kept, _ := validate(local, p, candidates, e, o.NEdge, tensor.NewRNG(o.Seed+300+int64(e)), o, edgeSpan)
		edgeSets[e] = pareto.Set(kept)
		return nil
	})
	vsp.End()
	if err != nil {
		return nil, err
	}
	st.ValidatePerEdge = (len(candidates) + o.NEdge - 1) / o.NEdge

	// Step 4, on the server: the curve over the union of the edges'
	// local Pareto sets.
	var union []pareto.Point
	for _, s := range edgeSets {
		union = append(union, s...)
	}
	st.Validated = len(union)
	sort.Slice(union, func(i, j int) bool { return union[i].Perf < union[j].Perf })
	curve := pareto.NewCurve(p.Name(), devProfiles.BaseQoS, union)
	curve.BaselineTime = o.Device.Time(p.Costs(), nil)
	st.ValidateTime = watch.Lap()
	st.Total = watch.Total()
	return &InstallResult{Curve: curve, Stats: st}, nil
}

// eachEdge runs one protocol step on every simulated edge at once and
// returns the lowest-numbered edge's error.
func eachEdge(nEdge int, step func(e int) error) error {
	errs := make([]error, nEdge)
	var wg sync.WaitGroup
	for e := 0; e < nEdge; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			errs[e] = step(e)
		}(e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// profileShard is step 1 as edge unit performs it.
func profileShard(p Program, o InstallOptions, unit int, sp *obs.Span) (*predictor.Profiles, error) {
	local, err := edgeProgram(p, unit, o.NEdge)
	if err != nil {
		return nil, err
	}
	pol := o.installPolicy()
	hwKnobs := func(op int) []approx.KnobID {
		var hw []approx.KnobID
		for _, id := range KnobsFor(p, op, pol) {
			if !approx.MustLookup(id).HardwareIndependent() {
				hw = append(hw, id)
			}
		}
		return hw
	}
	return CollectProfiles(local, nil, hwKnobs, tensor.NewRNG(o.Seed+200+int64(unit)), sp), nil
}

// edgeProgram is p as edge unit of an nEdge fleet sees it: the unit's
// in-order share of the calibration inputs, or all of p for a fleet of one.
func edgeProgram(p Program, unit, nEdge int) (Program, error) {
	if nEdge == 1 {
		return p, nil
	}
	sharder, ok := p.(Sharder)
	if !ok {
		return nil, errCannotShard(p, nEdge)
	}
	n := sharder.NumCalib()
	return sharder.Shard(unit*n/nEdge, (unit+1)*n/nEdge)
}

// combineProfiles merges the development-time (software-knob) profiles
// with the install-time hardware-knob profiles into one table.
func combineProfiles(sw, hw *predictor.Profiles) *predictor.Profiles {
	out := predictor.NewProfiles(sw.BaseQoS, sw.BaseOut)
	for k, v := range sw.DeltaQ {
		out.DeltaQ[k] = v
	}
	for k, v := range sw.DeltaT {
		out.DeltaT[k] = v
	}
	for k, v := range hw.DeltaQ {
		out.DeltaQ[k] = v
	}
	for k, v := range hw.DeltaT {
		// Hardware ΔT is usable only when shapes line up with the
		// software baseline (full-set concatenation).
		if out.BaseOut != nil && v.Shape().Equal(out.BaseOut.Shape()) {
			out.DeltaT[k] = v
		}
	}
	return out
}
