package core

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/promise"
)

// This file is the domain-level static checker: these functions validate
// the system's data — the knob registry, the per-class knob sets, and
// shipped tradeoff curves — so an incomplete error model or a malformed
// curve is caught at program load rather than mid-tuning.
// TestCheckKnobRegistryClean runs CheckKnobRegistry against both TX2
// models.

// CheckKnobRegistry validates the full knob registry against the given
// devices: every registered knob must have well-formed parameters, a
// usable error model, positive finite performance factors, and at least
// one device able to execute it; every knob id handed out by the
// per-class knob sets must resolve in the registry; and every registered
// knob must be handed out to some op class. A nil/empty device list checks
// everything but device support.
func CheckKnobRegistry(devs ...*device.Device) []error {
	all := approx.All()
	errs := CheckKnobs(all, devs)

	// Per-class knob-set completeness: KnobsFor must only hand out ids the
	// registry can resolve, every class must include the baseline, and no
	// registered knob may be left out of every class's set.
	offered := make(map[approx.KnobID]bool)
	for _, class := range []approx.OpClass{approx.OpOther, approx.OpConv, approx.OpMatMul, approx.OpReduce} {
		for _, hw := range []bool{false, true} {
			ids := approx.KnobsFor(class, hw)
			hasBaseline := false
			for _, id := range ids {
				offered[id] = true
				if _, ok := approx.Lookup(id); !ok {
					errs = append(errs, fmt.Errorf("core: KnobsFor(%s, hw=%v) lists unregistered knob id %d", class, hw, id))
				}
				if id == approx.KnobFP32 {
					hasBaseline = true
				}
			}
			if !hasBaseline {
				errs = append(errs, fmt.Errorf("core: KnobsFor(%s, hw=%v) omits the FP32 baseline", class, hw))
			}
		}
	}
	for _, k := range all {
		if !offered[k.ID] {
			errs = append(errs, fmt.Errorf("core: knob %d (%s) is offered to no op class by KnobsFor", k.ID, k.Kind))
		}
	}
	return errs
}

// CheckKnobs validates a set of knob values (registered or not — the knobs
// are checked by value, so tests can inject crafted incomplete sets).
func CheckKnobs(knobs []approx.Knob, devs []*device.Device) []error {
	var errs []error
	seen := make(map[approx.KnobID]bool)
	for _, k := range knobs {
		if seen[k.ID] {
			errs = append(errs, fmt.Errorf("core: duplicate knob id %d", k.ID))
			continue
		}
		seen[k.ID] = true
		errs = append(errs, checkKnob(k, devs)...)
	}
	return errs
}

func checkKnob(k approx.Knob, devs []*device.Device) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("core: knob %d (%s): "+format, append([]any{int(k.ID), k.Kind}, args...)...))
	}

	// Parameter well-formedness per kind.
	switch k.Kind {
	case approx.KindBaseline, approx.KindFP16:
		// No parameters.
	case approx.KindSampling, approx.KindPerforation:
		if k.Stride < 2 || k.Stride > 4 {
			report("stride %d outside 2..4", k.Stride)
		}
		if k.Offset < 0 || k.Offset >= k.Stride {
			report("offset %d outside 0..%d", k.Offset, k.Stride-1)
		}
	case approx.KindReduceSampling:
		if k.RatioDen <= 0 || k.RatioNum <= 0 || k.RatioNum >= k.RatioDen {
			report("sampling ratio %d/%d is not a proper fraction", k.RatioNum, k.RatioDen)
		}
	case approx.KindPromise:
		if k.Level < 1 || k.Level > promise.Levels {
			report("voltage level %d outside 1..%d", k.Level, promise.Levels)
		} else {
			// Error-model completeness: a PROMISE level with no error
			// figure would make the predictor silently treat it as exact.
			if s := promise.ErrorSigma(k.Level); !(s > 0) || math.IsInf(s, 0) {
				report("error model gives sigma %v at level P%d", s, k.Level)
			}
			if g := promise.EnergyReduction(k.Level); !(g > 0) {
				report("energy model gives factor %v at level P%d", g, k.Level)
			}
		}
	default:
		report("unknown kind")
		return errs // Factors() on an unknown kind is meaningless
	}

	// Performance-factor completeness: Rc and Rm must be positive and
	// finite or Eq. 3 divides by zero.
	rc, rm := k.Factors()
	if !(rc > 0) || math.IsInf(rc, 0) || !(rm > 0) || math.IsInf(rm, 0) {
		report("cost factors Rc=%v Rm=%v are not positive finite", rc, rm)
	}

	// Device support: a knob no device can run is dead weight in every
	// search space that includes it.
	if len(devs) > 0 {
		supported := false
		for _, d := range devs {
			if d.Supports(k) {
				supported = true
			}
		}
		if !supported {
			report("no device in %s supports it", deviceNames(devs))
		}
	}
	return errs
}

func deviceNames(devs []*device.Device) string {
	s := "["
	for i, d := range devs {
		if i > 0 {
			s += " "
		}
		s += d.Name
	}
	return s + "]"
}

// CheckCurve validates a tradeoff curve: points sorted by increasing Perf,
// finite QoS/Perf values, positive speedups, and configurations resolving
// to registered knobs; a nil curve is refused like an empty one. In strict
// mode it additionally rejects strictly dominated points
// — the invariant of install-time-refined curves PS(S*). Development-time
// curves are checked relaxed: PSε deliberately retains predicted-dominated
// points because a dominated prediction may win once measured on the
// device (§2.2).
func CheckCurve(c *pareto.Curve, strict bool) []error {
	if c == nil {
		return []error{fmt.Errorf("core: no tradeoff curve")}
	}
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("core: curve %q: "+format, append([]any{c.Program}, args...)...))
	}
	if len(c.Points) == 0 {
		report("has no points")
		return errs
	}
	for i, p := range c.Points {
		if math.IsNaN(p.QoS) || math.IsInf(p.QoS, 0) || math.IsNaN(p.Perf) || math.IsInf(p.Perf, 0) {
			report("point %d has non-finite QoS/Perf (%v, %v)", i, p.QoS, p.Perf)
		} else if p.Perf <= 0 {
			report("point %d has non-positive Perf %v", i, p.Perf)
		}
		if i > 0 && p.Perf < c.Points[i-1].Perf {
			report("points not sorted by Perf at index %d (%v after %v)", i, p.Perf, c.Points[i-1].Perf)
		}
		for op, id := range p.Config {
			if _, ok := approx.Lookup(id); !ok {
				report("point %d assigns unregistered knob %d to op %d", i, id, op)
			}
		}
	}
	if strict {
		for i, p := range c.Points {
			for j, q := range c.Points {
				if i != j && pareto.StrictlyDominated(p, q) {
					report("point %d (QoS %.4g, Perf %.4g) is strictly dominated by point %d (QoS %.4g, Perf %.4g)",
						i, p.QoS, p.Perf, j, q.QoS, q.Perf)
				}
			}
		}
	}
	return errs
}
