// Package pareto implements the tradeoff-space machinery of §2.1: tradeoff
// points (QoS, Perf, config), the dominance relation ≼, Pareto sets PS
// (Eq. 1), the relaxed sets PSε (Eq. 2), and the tradeoff curves that are
// shipped with application binaries and consumed by the install-time and
// run-time phases.
package pareto

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/approx"
)

// Point is a tradeoff point: the quality-of-service and performance of a
// configuration. Perf is a speedup relative to the program baseline
// (higher is better), matching how the paper reports its curves.
type Point struct {
	QoS    float64       `json:"qos"`
	Perf   float64       `json:"perf"`
	Config approx.Config `json:"config"`
}

// Dominated reports s ≼ o: s has both lower-or-equal QoS and
// lower-or-equal Perf.
func Dominated(s, o Point) bool {
	return s.QoS <= o.QoS && s.Perf <= o.Perf
}

// StrictlyDominated reports s ≺ o: dominated with at least one strict
// inequality.
func StrictlyDominated(s, o Point) bool {
	return Dominated(s, o) && (s.QoS != o.QoS || s.Perf != o.Perf)
}

// Dist is the Euclidean distance between two points in the tradeoff space.
func Dist(a, b Point) float64 {
	dq, dp := a.QoS-b.QoS, a.Perf-b.Perf
	return math.Sqrt(float64(dq*dq) + float64(dp*dp))
}

// Set computes the Pareto set PS(S) of Eq. 1: the points not strictly
// dominated by any other point. Duplicate (QoS,Perf) pairs are collapsed
// to one representative. The result is sorted by increasing Perf.
func Set(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	// Sort by Perf descending, QoS descending; sweep keeping rising QoS.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Perf != sorted[j].Perf {
			return sorted[i].Perf > sorted[j].Perf
		}
		return sorted[i].QoS > sorted[j].QoS
	})
	var out []Point
	bestQoS := math.Inf(-1)
	lastPerf := math.Inf(1)
	for _, p := range sorted {
		if p.QoS > bestQoS {
			if p.Perf == lastPerf && len(out) > 0 {
				// Same Perf, higher QoS cannot happen due to sort order.
				continue
			}
			out = append(out, p)
			bestQoS = p.QoS
			lastPerf = p.Perf
		}
	}
	// ascending Perf for the shipped curve
	sort.Slice(out, func(i, j int) bool { return out[i].Perf < out[j].Perf })
	return out
}

// RelaxedSet computes PSε(S) of Eq. 2: points within Euclidean distance ε
// of some Pareto point. ε = 0 returns points coinciding with the Pareto
// frontier.
func RelaxedSet(points []Point, eps float64) []Point {
	ps := Set(points)
	if len(ps) == 0 {
		return nil
	}
	var out []Point
	for _, p := range points {
		for _, s := range ps {
			if Dist(p, s) <= eps {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Perf < out[j].Perf })
	return out
}

// EpsilonForLimit returns the smallest ε from a geometric ladder such that
// |PSε(points)| stays at or below limit, mirroring §6.4's "ε1 and ε2 are
// computed per benchmark to limit the maximum number of configurations".
// If even ε = 0 exceeds the limit, the Pareto points closest-packed by
// Perf are trimmed to the limit and 0 is returned.
func EpsilonForLimit(points []Point, limit int) float64 {
	if limit <= 0 {
		panic("pareto: limit must be positive")
	}
	base := Set(points)
	if len(base) > limit {
		return 0
	}
	eps := 0.0
	step := 0.05
	for {
		next := eps + step
		if len(RelaxedSet(points, next)) > limit {
			return eps
		}
		eps = next
		step *= 2
		if eps > 1e6 {
			return eps // everything fits
		}
	}
}

// Trim returns at most limit points, preferring coverage across the Perf
// range: it keeps endpoints and subsamples uniformly.
func Trim(points []Point, limit int) []Point {
	if len(points) <= limit {
		return points
	}
	out := make([]Point, 0, limit)
	for i := 0; i < limit; i++ {
		idx := i * (len(points) - 1) / (limit - 1)
		out = append(out, points[idx])
	}
	return out
}

// Curve is a tradeoff curve: the Pareto (or relaxed) points sorted by
// increasing Perf, as shipped with the program binary. BaselineQoS and
// BaselineTime record the exact-execution reference the Perf speedups are
// relative to.
type Curve struct {
	Program      string  `json:"program"`
	BaselineQoS  float64 `json:"baseline_qos"`
	BaselineTime float64 `json:"baseline_time,omitempty"`
	Points       []Point `json:"points"`
}

// NewCurve builds a curve from points (strictly Pareto-reduced, sorted)
// — the form install-time refinement produces: PS(S*).
func NewCurve(program string, baselineQoS float64, points []Point) *Curve {
	return &Curve{Program: program, BaselineQoS: baselineQoS, Points: Set(points)}
}

// NewRelaxedCurve builds a curve keeping every supplied point (sorted by
// Perf) — the form development-time tuning ships: PSε₂ deliberately
// retains near-Pareto points because their development-time Perf values
// are hardware-agnostic predictions, and a predicted-dominated point may
// win once measured on the target device (§2.2).
func NewRelaxedCurve(program string, baselineQoS float64, points []Point) *Curve {
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Perf < sorted[j].Perf })
	return &Curve{Program: program, BaselineQoS: baselineQoS, Points: sorted}
}

// Len returns the number of points.
func (c *Curve) Len() int { return len(c.Points) }

// Best returns the highest-Perf point with QoS ≥ minQoS, or false if none
// qualifies.
func (c *Curve) Best(minQoS float64) (Point, bool) {
	for i := len(c.Points) - 1; i >= 0; i-- {
		if c.Points[i].QoS >= minQoS {
			return c.Points[i], true
		}
	}
	return Point{}, false
}

// Marshal serializes the curve to JSON for shipping with the binary.
func (c *Curve) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// UnmarshalCurve restores a shipped curve, re-sorting defensively; points
// of equal Perf keep their shipped order, so a curve survives a round trip
// unchanged (FuzzUnmarshalCurve). A point whose speedup is not positive is
// refused: a runtime tuner would divide its time budget by it.
func UnmarshalCurve(data []byte) (*Curve, error) {
	var c Curve
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("pareto: bad curve: %w", err)
	}
	for i, p := range c.Points {
		if !(p.Perf > 0) {
			return nil, fmt.Errorf("pareto: bad curve: point %d has non-positive perf %v", i, p.Perf)
		}
	}
	sort.SliceStable(c.Points, func(i, j int) bool { return c.Points[i].Perf < c.Points[j].Perf })
	return &c, nil
}
