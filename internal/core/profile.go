package core

import (
	"time"

	"repro/internal/approx"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/tensor"
)

// mProfileEntries counts (op, knob) profile measurements across all
// profile-collection runs.
var mProfileEntries = obs.NewCounter("core.profile_entries")

// CollectProfiles runs the profile-collection phase of §3.2: for each
// (op, knob) pair in the program's knob space it executes the program on
// the calibration inputs with only that operator approximated, and records
// the end-to-end QoS change ΔQ and (when the program has fixed-shape
// outputs) the raw-output change ΔT.
//
// ops may restrict collection to a subset of the program's operations
// (nil means all); knobsOf maps an op to the knob candidates to profile.
// The supplied rng seeds PROMISE noise reproducibly. When parent is a live
// span, each profiled op gets a child span (and the profiling executions
// themselves record graph spans while the tracer's detail budget lasts);
// nil traces nothing.
func CollectProfiles(p Program, ops []int, knobsOf func(op int) []approx.KnobID, rng *tensor.RNG, parent *obs.Span) *predictor.Profiles {
	if ops == nil {
		ops = p.Ops()
	}
	baseOut := baselineOutput(p, Calib)
	baseQoS := p.Score(Calib, baseOut)
	var baseForPi1 *tensor.Tensor
	if p.FixedOutputShape() {
		baseForPi1 = baseOut
	}
	profiles := predictor.NewProfiles(baseQoS, baseForPi1)

	suffix, fast := p.(SuffixRunner)
	tracedSuffix, fastTraced := p.(TracedSuffixRunner)
	entries := 0
	for _, op := range ops {
		osp := parent.Child("profile-op").With("op", op)
		knobs := knobsOf(op)
		for _, knob := range knobs {
			if knob == approx.KnobFP32 {
				continue // the baseline needs no profile
			}
			var out *tensor.Tensor
			switch {
			case fastTraced && osp != nil:
				out = tracedSuffix.RunSuffixTraced(op, knob, Calib, rng, osp)
			case fast:
				out = suffix.RunSuffix(op, knob, Calib, rng)
			default:
				out = runTraced(p, approx.Config{op: knob}, Calib, rng, osp)
			}
			dq := p.Score(Calib, out) - baseQoS
			var dt *tensor.Tensor
			if baseForPi1 != nil && out.Shape().Equal(baseForPi1.Shape()) {
				dt = tensor.Diff(out, baseForPi1)
			}
			profiles.Add(op, knob, dq, dt)
			entries++
		}
		osp.With("knobs", len(knobs)).End()
	}
	mProfileEntries.Add(int64(entries))
	parent.With("profile_entries", entries)
	return profiles
}

// baselineOutput runs (or fetches the cached) exact execution.
func baselineOutput(p Program, set InputSet) *tensor.Tensor {
	if gp, ok := p.(*GraphProgram); ok {
		return gp.BaselineOut(set)
	}
	return p.Run(nil, set, nil)
}

// runTraced executes the program with a parent span when the program can
// carry one (TracedRunner) and tracing is live; otherwise a plain Run.
func runTraced(p Program, cfg approx.Config, set InputSet, rng *tensor.RNG, sp *obs.Span) *tensor.Tensor {
	if sp != nil {
		if tr, ok := p.(TracedRunner); ok {
			return tr.RunTraced(cfg, set, rng, sp)
		}
	}
	return p.Run(cfg, set, rng)
}

// Stopwatch accumulates phase timings for the Table-4 style reports. It
// reads the obs monotonic clock, so Stats timings and trace span
// durations come from one clock source.
type Stopwatch struct {
	start int64
	last  int64
}

// NewStopwatch starts timing.
func NewStopwatch() *Stopwatch {
	n := obs.Now()
	return &Stopwatch{start: n, last: n}
}

// Lap returns the elapsed time since the previous lap (or the start) and
// restarts the lap clock.
func (s *Stopwatch) Lap() time.Duration {
	n := obs.Now()
	d := time.Duration(n - s.last)
	s.last = n
	return d
}

// Total returns the elapsed time since the stopwatch was created,
// independent of laps.
func (s *Stopwatch) Total() time.Duration { return time.Duration(obs.Now() - s.start) }
