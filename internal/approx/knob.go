// Package approx defines the approximation knobs of §2.3 of the paper, the
// configuration type that maps tensor operations to knob values, and the
// hardware-agnostic cost factors (Eq. 3) that the performance predictor and
// the device models share.
//
// The knob inventory reproduces the paper exactly:
//
//   - filter sampling: skip rates 50%/33%/25% (skip 1-of-k, k=2,3,4) with
//     k offsets each — 9 knobs, each in FP32 and FP16 (18);
//   - perforated convolutions: rows or columns, the same three rates and
//     offsets — 18 knobs, each in FP32 and FP16 (36);
//   - plain FP32 (the baseline, knob id 0) and plain FP16 — 2;
//   - PROMISE voltage levels P1–P7 — 7 (hardware-specific);
//
// totalling 63 knobs per convolution. Reductions get 3 sampling ratios
// (50%, 40%, 25% of inputs used) × 2 precisions + 2 exact = 8 knobs; other
// tensor operations get the 2 precision choices.
package approx

import (
	"fmt"
	"sort"

	"repro/internal/tensorops"
)

// Kind classifies a knob by approximation technique.
type Kind int

const (
	KindBaseline Kind = iota // exact FP32
	KindFP16                 // exact computation, half-precision storage
	KindSampling             // convolution filter sampling
	KindPerforation
	KindReduceSampling
	KindPromise
)

func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "fp32"
	case KindFP16:
		return "fp16"
	case KindSampling:
		return "samp"
	case KindPerforation:
		return "perf"
	case KindReduceSampling:
		return "red_samp"
	case KindPromise:
		return "promise"
	default:
		return "unknown"
	}
}

// KnobID is the discrete integer parameter the tuner manipulates
// (§2.1: "an approximation knob is a discrete-valued parameter ...
// represented using integers"). Zero denotes no approximation.
type KnobID int

// Knob describes one approximation setting for one class of tensor op.
type Knob struct {
	ID   KnobID
	Kind Kind
	Prec tensorops.Precision

	// Sampling / perforation parameters: skip 1 of every Stride elements
	// starting at Offset.
	Stride, Offset int
	// Perforation direction.
	Dir tensorops.PerfDirection
	// Reduction sampling: use RatioNum/RatioDen of the inputs.
	RatioNum, RatioDen int
	// PROMISE voltage level 1..7 (P1 lowest voltage, highest error).
	Level int
}

// Fixed knob IDs. IDs are stable across runs and serialize into shipped
// tradeoff curves.
const (
	KnobFP32 KnobID = 0
	KnobFP16 KnobID = 1

	sampFP32Base KnobID = 10 // 9 knobs: 10..18
	sampFP16Base KnobID = 20 // 9 knobs: 20..28
	perfFP32Base KnobID = 30 // 18 knobs: 30..47
	perfFP16Base KnobID = 50 // 18 knobs: 50..67
	redFP32Base  KnobID = 70 // 3 knobs: 70..72
	redFP16Base  KnobID = 80 // 3 knobs: 80..82
	promiseBase  KnobID = 90 // 7 knobs: 90..96 (P1..P7)
)

var registry = buildRegistry()

func buildRegistry() map[KnobID]Knob {
	r := make(map[KnobID]Knob)
	add := func(k Knob) {
		if _, dup := r[k.ID]; dup {
			panic(fmt.Sprintf("approx: duplicate knob id %d", k.ID))
		}
		r[k.ID] = k
	}
	add(Knob{ID: KnobFP32, Kind: KindBaseline, Prec: tensorops.FP32})
	add(Knob{ID: KnobFP16, Kind: KindFP16, Prec: tensorops.FP16})

	// Filter sampling: strides 2,3,4 with offsets 0..stride-1 → 9 knobs.
	i := 0
	for stride := 2; stride <= 4; stride++ {
		for off := 0; off < stride; off++ {
			add(Knob{ID: sampFP32Base + KnobID(i), Kind: KindSampling, Prec: tensorops.FP32, Stride: stride, Offset: off})
			add(Knob{ID: sampFP16Base + KnobID(i), Kind: KindSampling, Prec: tensorops.FP16, Stride: stride, Offset: off})
			i++
		}
	}

	// Perforation: rows/cols × strides 2,3,4 × offsets → 18 knobs.
	i = 0
	for _, dir := range []tensorops.PerfDirection{tensorops.PerfRows, tensorops.PerfCols} {
		for stride := 2; stride <= 4; stride++ {
			for off := 0; off < stride; off++ {
				add(Knob{ID: perfFP32Base + KnobID(i), Kind: KindPerforation, Prec: tensorops.FP32, Dir: dir, Stride: stride, Offset: off})
				add(Knob{ID: perfFP16Base + KnobID(i), Kind: KindPerforation, Prec: tensorops.FP16, Dir: dir, Stride: stride, Offset: off})
				i++
			}
		}
	}

	// Reduction sampling: 50%, 40%, 25% of inputs used.
	ratios := []struct{ num, den int }{{1, 2}, {2, 5}, {1, 4}}
	for j, rt := range ratios {
		add(Knob{ID: redFP32Base + KnobID(j), Kind: KindReduceSampling, Prec: tensorops.FP32, RatioNum: rt.num, RatioDen: rt.den})
		add(Knob{ID: redFP16Base + KnobID(j), Kind: KindReduceSampling, Prec: tensorops.FP16, RatioNum: rt.num, RatioDen: rt.den})
	}

	// PROMISE P1..P7.
	for lvl := 1; lvl <= 7; lvl++ {
		add(Knob{ID: promiseBase + KnobID(lvl-1), Kind: KindPromise, Prec: tensorops.FP32, Level: lvl})
	}
	return r
}

// Lookup returns the knob with the given id.
func Lookup(id KnobID) (Knob, bool) {
	k, ok := registry[id]
	return k, ok
}

// All returns every registered knob sorted by id — the domain the static
// registry checker (core.CheckKnobRegistry) validates.
func All() []Knob {
	out := make([]Knob, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MustLookup returns the knob with the given id, panicking if unknown.
func MustLookup(id KnobID) Knob {
	k, ok := registry[id]
	if !ok {
		panic(fmt.Sprintf("approx: unknown knob id %d", id))
	}
	return k
}

// PromiseKnob returns the knob id for PROMISE voltage level lvl (1..7).
func PromiseKnob(lvl int) KnobID {
	if lvl < 1 || lvl > 7 {
		panic(fmt.Sprintf("approx: PROMISE level %d not in 1..7", lvl))
	}
	return promiseBase + KnobID(lvl-1)
}

// SamplingKnob returns the filter-sampling knob for (stride, offset, prec).
func SamplingKnob(stride, offset int, prec tensorops.Precision) KnobID {
	idx := sampIndex(stride, offset)
	if prec == tensorops.FP16 {
		return sampFP16Base + KnobID(idx)
	}
	return sampFP32Base + KnobID(idx)
}

// PerforationKnob returns the perforation knob for (dir, stride, offset, prec).
func PerforationKnob(dir tensorops.PerfDirection, stride, offset int, prec tensorops.Precision) KnobID {
	idx := sampIndex(stride, offset)
	if dir == tensorops.PerfCols {
		idx += 9
	}
	if prec == tensorops.FP16 {
		return perfFP16Base + KnobID(idx)
	}
	return perfFP32Base + KnobID(idx)
}

// ReduceSamplingKnob returns the reduction-sampling knob for the i-th ratio
// (0: 50%, 1: 40%, 2: 25%).
func ReduceSamplingKnob(i int, prec tensorops.Precision) KnobID {
	if i < 0 || i > 2 {
		panic(fmt.Sprintf("approx: reduce-sampling ratio index %d not in 0..2", i))
	}
	if prec == tensorops.FP16 {
		return redFP16Base + KnobID(i)
	}
	return redFP32Base + KnobID(i)
}

func sampIndex(stride, offset int) int {
	if stride < 2 || stride > 4 || offset < 0 || offset >= stride {
		panic(fmt.Sprintf("approx: invalid stride/offset %d/%d", stride, offset))
	}
	base := 0
	for s := 2; s < stride; s++ {
		base += s
	}
	return base + offset
}

// Name renders the knob in the notation of the paper's Table 3:
// "fp32", "fp16", "samp-50%", "perf-33%", "red-25%", "promise-P3",
// suffixed with the precision for approximations run in half precision.
func (k Knob) Name() string {
	pct := func(stride int) string {
		switch stride {
		case 2:
			return "50%"
		case 3:
			return "33%"
		case 4:
			return "25%"
		}
		return "?"
	}
	suffix := ""
	if k.Prec == tensorops.FP16 && k.Kind != KindFP16 && k.Kind != KindBaseline {
		suffix = "/fp16"
	}
	switch k.Kind {
	case KindBaseline:
		return "fp32"
	case KindFP16:
		return "fp16"
	case KindSampling:
		return fmt.Sprintf("samp-%s(o%d)%s", pct(k.Stride), k.Offset, suffix)
	case KindPerforation:
		return fmt.Sprintf("perf-%s-%s(o%d)%s", pct(k.Stride), k.Dir, k.Offset, suffix)
	case KindReduceSampling:
		return fmt.Sprintf("red-%d/%d%s", k.RatioNum, k.RatioDen, suffix)
	case KindPromise:
		return fmt.Sprintf("promise-P%d", k.Level)
	default:
		return "unknown"
	}
}

// Group renders the knob's family in Table 3 notation, ignoring offsets,
// direction and precision suffix (e.g. all of perf-50% row/col offsets
// count as "perf-50%"); FP16-only knobs report "FP16".
func (k Knob) Group() string {
	pct := func(stride int) string {
		switch stride {
		case 2:
			return "50%"
		case 3:
			return "33%"
		case 4:
			return "25%"
		}
		return "?"
	}
	switch k.Kind {
	case KindBaseline:
		return "FP32"
	case KindFP16:
		return "FP16"
	case KindSampling:
		return "samp-" + pct(k.Stride)
	case KindPerforation:
		return "perf-" + pct(k.Stride)
	case KindReduceSampling:
		switch k.RatioDen {
		case 2:
			return "red-50%"
		case 5:
			return "red-40%"
		default:
			return "red-25%"
		}
	case KindPromise:
		return fmt.Sprintf("P%d", k.Level)
	default:
		return "unknown"
	}
}

// HardwareIndependent reports whether the knob's effect on program outputs
// is fixed regardless of hardware (§2.1). Only PROMISE knobs are
// hardware-specific among the five techniques evaluated.
func (k Knob) HardwareIndependent() bool { return k.Kind != KindPromise }

// IsBaseline reports whether the knob performs no approximation.
func (k Knob) IsBaseline() bool { return k.ID == KnobFP32 }
