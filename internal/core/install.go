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
	// tuning (the paper emulates 100).
	NEdge int
	// LeaseTTL is how long an edge may stay silent before the network
	// coordinator (internal/distrib) declares it dead and reassigns its
	// shard/slice to a live edge (default 30s). The in-process simulated
	// fleet ignores it.
	LeaseTTL time.Duration
	// RequestTimeout bounds each edge HTTP request (default 10s).
	RequestTimeout time.Duration
	// MaxRetries is the per-request retry budget of the edge client
	// (default 4).
	MaxRetries int
	// RetryBase is the first retry backoff delay; it doubles per retry
	// with seeded jitter (default 50ms).
	RetryBase time.Duration
}

// Norm returns o with every unset field replaced by its documented
// default. InstallTune, RefineCurve and the network transport
// (internal/distrib) all normalize through it, so no default is written
// down twice.
func (o InstallOptions) Norm() InstallOptions {
	o.Options = o.Options.norm()
	if o.NEdge == 0 {
		o.NEdge = 4
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBase == 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	return o
}

// ForFleet returns o normalized for a distributed run of p, or the reason
// no fleet — simulated or networked — can run it: the protocol measures on
// a device model, and more than one edge needs a calibration set that
// shards.
func (o InstallOptions) ForFleet(p Program) (InstallOptions, error) {
	o = o.Norm()
	if o.Device == nil {
		return o, errNoDevice
	}
	if _, ok := p.(Sharder); !ok && o.NEdge > 1 {
		return o, errCannotShard(p, o.NEdge)
	}
	return o, nil
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
	o = o.Norm()
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
// The four steps are the exported functions below; this fleet calls them
// from goroutines, internal/distrib's from HTTP handlers and clients, and
// for equal options the two ship byte-identical curves.
func InstallTune(p Program, devProfiles *predictor.Profiles, o InstallOptions) (*InstallResult, error) {
	o, err := o.ForFleet(p)
	if err != nil {
		return nil, err
	}
	root := obs.Start("phase:install").
		With("program", p.Name()).With("mode", "distributed").
		With("device", o.Device.Name).With("objective", o.Objective.String()).With("edges", o.NEdge)
	defer root.End()
	watch := NewStopwatch()
	var st InstallStats

	esp := root.Child("edge-profile")
	shards := make([]*predictor.Profiles, o.NEdge)
	err = eachEdge(o.NEdge, func(e int) (err error) {
		ssp := esp.Child("edge-shard").With("edge", e)
		defer ssp.End()
		shards[e], err = ProfileShard(p, o, e, ssp)
		return err
	})
	esp.End()
	if err != nil {
		return nil, err
	}
	st.EdgeProfileTime = watch.Lap()

	tsp := root.Child("server-tune")
	candidates, searchStats, err := SearchShortlist(p, devProfiles, shards, o, tsp)
	tsp.With("shortlist", len(candidates)).End()
	if err != nil {
		return nil, err
	}
	st.Stats = searchStats
	st.ServerTuneTime = watch.Lap()

	vsp := root.Child("edge-validate").With("shortlist", len(candidates))
	edgeSets := make([][]pareto.Point, o.NEdge)
	err = eachEdge(o.NEdge, func(e int) (err error) {
		edgeSpan := vsp.Child("edge").With("edge", e)
		defer edgeSpan.End()
		edgeSets[e], err = ValidateSlice(p, o, e, candidates, edgeSpan)
		return err
	})
	vsp.End()
	if err != nil {
		return nil, err
	}
	st.ValidatePerEdge = (len(candidates) + o.NEdge - 1) / o.NEdge

	curve := FinalCurve(p, devProfiles.BaseQoS, edgeSets, o)
	for _, s := range edgeSets {
		st.Validated += len(s)
	}
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

// The §4 protocol, one function per step. Every step takes the fleet's
// ForFleet-normalized options and is a pure function of them and its unit
// number: a unit's seed comes from the unit, never from who computes it, so
// a survivor that takes over a dead peer's shard or slice reproduces the
// bytes the peer would have sent. Spans may be nil.

// ProfileShard is step 1 as edge unit performs it: collect the QoS profiles
// of the hardware-specific knobs on the unit's calibration shard.
func ProfileShard(p Program, o InstallOptions, unit int, sp *obs.Span) (*predictor.Profiles, error) {
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

// SearchShortlist is step 2, the server's: merge the edges' shard profiles
// (mean ΔQ, concatenated ΔT), lay them over the development-time software
// profiles, and run steps 2–4 of Algorithm 1 — calibration, search,
// ε1-shortlist — over the combined knob space. shards is indexed by unit.
func SearchShortlist(p Program, devProfiles *predictor.Profiles, shards []*predictor.Profiles, o InstallOptions, sp *obs.Span) ([]pareto.Point, Stats, error) {
	hw := shards[0]
	if len(shards) > 1 {
		hw = predictor.Merge(shards)
	}
	o.Policy = o.installPolicy()
	if o.Objective == MinimizeEnergy {
		// For energy the search ranks by the device's energy model (the
		// "corresponding prediction model" of §3.1); for time it keeps the
		// hardware-agnostic Eq. 3 ranking.
		dev := o.Device
		o.PerfModel = func(cfg approx.Config) float64 { return measurePerf(p, dev, MinimizeEnergy, cfg) }
	}
	var st Stats
	candidates, err := searchShortlist(p, combineProfiles(devProfiles, hw), o.Options, tensor.NewRNG(o.Seed+400), sp, NewStopwatch(), &st)
	return candidates, st, err
}

// ValidateSlice is step 3 as edge unit performs it: measure real QoS on the
// unit's calibration shard, and perf/energy on the device, for its equal
// share shortlist[unit], shortlist[unit+NEdge], … and return the local
// Pareto set.
func ValidateSlice(p Program, o InstallOptions, unit int, candidates []pareto.Point, sp *obs.Span) ([]pareto.Point, error) {
	local, err := edgeProgram(p, unit, o.NEdge)
	if err != nil {
		return nil, err
	}
	kept, _ := validate(local, p, candidates, unit, o.NEdge, tensor.NewRNG(o.Seed+300+int64(unit)), o, sp)
	return pareto.Set(kept), nil
}

// FinalCurve is step 4, the server's: the curve PS(S*₁ ∪ … ∪ S*ₙ) over the
// edges' local Pareto sets, indexed by unit.
func FinalCurve(p Program, baseQoS float64, edgeSets [][]pareto.Point, o InstallOptions) *pareto.Curve {
	var union []pareto.Point
	for _, s := range edgeSets {
		union = append(union, s...)
	}
	sort.Slice(union, func(i, j int) bool { return union[i].Perf < union[j].Perf })
	curve := pareto.NewCurve(p.Name(), baseQoS, union)
	curve.BaselineTime = o.Device.Time(p.Costs(), nil)
	return curve
}

// edgeProgram is p as edge unit of an nEdge fleet sees it: the unit's
// in-order share of the calibration inputs, or all of p for a fleet of one.
func edgeProgram(p Program, unit, nEdge int) (Program, error) {
	if unit < 0 || unit >= nEdge {
		return nil, fmt.Errorf("core: unit %d is outside a fleet of %d", unit, nEdge)
	}
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
