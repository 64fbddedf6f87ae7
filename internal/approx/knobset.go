package approx

import (
	"math"
	"sort"

	"repro/internal/tensorops"
)

// OpClass groups tensor operations by the knob sets that apply to them.
type OpClass int

const (
	OpOther  OpClass = iota // activations, bias, softmax, batchnorm, ...
	OpConv                  // 2-D convolution
	OpMatMul                // dense / fully-connected
	OpReduce                // reductions and pooling
)

func (c OpClass) String() string {
	switch c {
	case OpConv:
		return "conv"
	case OpMatMul:
		return "matmul"
	case OpReduce:
		return "reduce"
	default:
		return "other"
	}
}

// KnobsFor returns the knob ids applicable to an operation class, sorted by
// id. includeHardware adds hardware-specific knobs (PROMISE) — at
// development time the paper tunes hardware-independent knobs only; PROMISE
// joins at install time, for convolutions and matrix multiplications.
func KnobsFor(class OpClass, includeHardware bool) []KnobID {
	var ids []KnobID
	switch class {
	case OpConv:
		ids = append(ids, KnobFP32, KnobFP16)
		for i := 0; i < 9; i++ {
			ids = append(ids, sampFP32Base+KnobID(i), sampFP16Base+KnobID(i))
		}
		for i := 0; i < 18; i++ {
			ids = append(ids, perfFP32Base+KnobID(i), perfFP16Base+KnobID(i))
		}
		if includeHardware {
			for l := 1; l <= 7; l++ {
				ids = append(ids, PromiseKnob(l))
			}
		}
	case OpMatMul:
		ids = append(ids, KnobFP32, KnobFP16)
		if includeHardware {
			for l := 1; l <= 7; l++ {
				ids = append(ids, PromiseKnob(l))
			}
		}
	case OpReduce:
		ids = append(ids, KnobFP32, KnobFP16)
		for i := 0; i < 3; i++ {
			ids = append(ids, redFP32Base+KnobID(i), redFP16Base+KnobID(i))
		}
	default:
		ids = append(ids, KnobFP32, KnobFP16)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CostFactors returns the hardware-agnostic reduction factors (Rc, Rm) of
// Eq. 3 in the paper: the factors by which a knob divides the operator's
// compute and memory operation counts. The paper's worked example — FP16
// 50% filter sampling has Rm = 4 (2× from FP16, 2× fewer loads) and
// Rc = 2 — anchors the table.
func CostFactors(id KnobID) (rc, rm float64) {
	return MustLookup(id).Factors()
}

// Factors returns the knob's (Rc, Rm) reduction factors; the value-based
// form of CostFactors, usable on knobs that are not (or not yet) in the
// registry — e.g. candidates under validation by core.CheckKnobs.
func (k Knob) Factors() (rc, rm float64) {
	rc, rm = 1, 1
	switch k.Kind {
	case KindBaseline:
	case KindFP16:
		rm = 2 // half the bytes
	case KindSampling:
		f := float64(k.Stride) / float64(k.Stride-1) // skip 1-of-k
		rc, rm = f, f
		if k.Prec == tensorops.FP16 {
			rm *= 2
		}
	case KindPerforation:
		f := float64(k.Stride) / float64(k.Stride-1)
		rc, rm = f, f
		if k.Prec == tensorops.FP16 {
			rm *= 2
		}
	case KindReduceSampling:
		f := float64(k.RatioDen) / float64(k.RatioNum) // use num/den of inputs
		rc, rm = f, f
		if k.Prec == tensorops.FP16 {
			rm *= 2
		}
	case KindPromise:
		// PROMISE computes in analog; Srivastava et al. report 1.4–3.4×
		// throughput vs digital accelerators. Model a mid-range constant:
		// voltage level changes energy, not throughput, to first order.
		rc, rm = 2.4, 2.4
	}
	return rc, rm
}

// SearchSpaceSize returns the size of the configuration space for a program
// whose operations have the given classes (the per-benchmark "Search
// Space" column of Table 1). Hardware-independent knobs only when
// includeHardware is false, matching the development-time space.
func SearchSpaceSize(classes []OpClass, includeHardware bool) float64 {
	size := 1.0
	for _, c := range classes {
		size *= float64(len(KnobsFor(c, includeHardware)))
		if math.IsInf(size, 1) {
			return size
		}
	}
	return size
}
