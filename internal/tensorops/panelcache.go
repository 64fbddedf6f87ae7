package tensorops

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Pack-once operands. The tuning phases re-execute one tensor graph
// thousands of times across candidate configurations, so the per-call
// operand transforms — FP16 quantization of constant weights and calibration
// inputs, filter sampling, packing a dense weight into the GEMM panel
// layout — would be recomputed from identical bytes on every call. The three
// constructors below build each once and keep it on the tensor it derives
// from (tensor.Derive), for tensors marked cacheable only: constant weights,
// long-lived calibration inputs, cached baseline activations. A
// convolution's packed patch matrix is not among them: every (op, knob)
// suffix run asks for a geometry no earlier run packed, so convolve packs
// from the input each call (convpack.go).

// The transforms a marked tensor may keep (tensor.DerivedKey.Kind).
const (
	// packQuant: the data quantized through FP16 ([]float32, same length).
	packQuant uint8 = iota
	// packSampled: the K-compacted filter-sampled copy of a conv weight
	// (*tensor.Tensor, Co × kept); P0, P1 = stride, offset.
	packSampled
	// packPanels: a dense weight prepacked for the blocked GEMM
	// (*prepacked); P0 = precision.
	packPanels
	// packPlan: a conv weight's lowering for one input extent and knob
	// (*convPlan); packOffs: the filter offsets it packs through for one
	// extent and sampling ([]int32); packTaps: its small-group tap table
	// for one precision and sampling (*convTaps). convKey packs the
	// parameters.
	packPlan
	packOffs
	packTaps
)

// InvalidatePacked is t.InvalidateCache().
//
// Deprecated: kept for benchmark/exec.go, which this repository's PRs may
// not edit alongside other code; delete it with the next benchmark PR.
func InvalidatePacked(t *tensor.Tensor) { t.InvalidateCache() }

// cachedQuantized returns t's data quantized through FP16, kept on t when
// t is cacheable. ok is false otherwise; the caller then quantizes into
// pooled scratch.
func cachedQuantized(t *tensor.Tensor) ([]float32, bool) {
	v, ok := t.Derive(tensor.DerivedKey{Kind: packQuant}, func() (any, int64) {
		q := make([]float32, t.Elems())
		tensor.QuantizeFP16Slice(q, t.Data())
		return q, int64(4 * len(q))
	})
	q, _ := v.([]float32)
	return q, ok
}

// cachedSampledFilter returns the K-compacted filter-sampled copy of w
// (compactSampledFilter), kept on w when w is cacheable and cacheable in
// turn, so the FP16 quantization of a sampled filter is kept too — and
// dropped with w. Returns nil when w is not cacheable.
func cachedSampledFilter(w *tensor.Tensor, samp sampSpec) *tensor.Tensor {
	key := tensor.DerivedKey{Kind: packSampled, P0: samp.stride, P1: samp.offset}
	v, _ := w.Derive(key, func() (any, int64) {
		sw := compactSampledFilter(w, samp).MarkCacheable()
		return sw, int64(4 * sw.Elems())
	})
	sw, _ := v.(*tensor.Tensor)
	return sw
}

// prepacked is a B operand in the one form the blocked GEMM reads: packRange
// panels of gemmNR columns, the last n mod gemmNR columns as one more panel
// whose other lanes are +0, so that every column goes through the same
// kernels. For FP16 the stored values are quantized; the GEMM then runs them
// as-is. A marked weight keeps one (cachedPrepackedB); any other B is packed
// into pooled scratch per call (gemmFresh).
type prepacked struct {
	panels []float32 // prepackedLen(k, n) floats, packed[(jp*k+l)*gemmNR+j]
	np     int       // full panels; the padded one, if any, follows them
}

// prepackedLen is the floats a k×n B takes packed: n rounded up to a panel.
func prepackedLen(k, n int) int {
	return k * ((n + gemmNR - 1) / gemmNR * gemmNR)
}

// buildPrepacked packs b (k×n row-major) into dst, which holds
// prepackedLen(k, n) floats: the full panels, in parallel over them, then
// the padded one. quantB quantizes every element through FP16 during the
// copy.
func buildPrepacked(dst, b []float32, k, n int, quantB bool) prepacked {
	np := n / gemmNR
	panels := dst[:prepackedLen(k, n)]
	if parallel.Serial() {
		packRange(0, np, b, panels, k, n, quantB)
	} else {
		parallel.ForChunked(np, func(plo, phi int) {
			packRange(plo, phi, b, panels, k, n, quantB)
		})
	}
	if j0 := np * gemmNR; j0 < n {
		tail := panels[j0*k:]
		clear(tail)
		for l := 0; l < k; l++ {
			for j := j0; j < n; j++ {
				v := b[l*n+j]
				if quantB {
					v = tensor.QuantizeFP16(v)
				}
				tail[l*gemmNR+j-j0] = v
			}
		}
	}
	return prepacked{panels: panels, np: np}
}

// cachedPrepackedB returns w's data (k×n) prepacked for the blocked GEMM
// under the given precision, kept on w when w is cacheable. Returns nil
// when it is not.
func cachedPrepackedB(w *tensor.Tensor, k, n int, prec Precision) *prepacked {
	v, _ := w.Derive(tensor.DerivedKey{Kind: packPanels, P0: int(prec)}, func() (any, int64) {
		p := buildPrepacked(make([]float32, prepackedLen(k, n)), w.Data(), k, n, prec == FP16)
		return &p, int64(4 * len(p.panels))
	})
	p, _ := v.(*prepacked)
	return p
}

// PrepackConvWeight eagerly builds the FP16 quantized copy of a conv
// weight (the operand the FP16 conv path borrows on every call). Returns
// the number of operands ensured (0 when w is not cacheable).
func PrepackConvWeight(w *tensor.Tensor) int {
	if _, ok := cachedQuantized(w); !ok {
		return 0
	}
	return 1
}

// PrepackMatMulWeight eagerly builds the packed B panels of a dense
// weight for both precisions. Returns the number of operands ensured.
func PrepackMatMulWeight(w *tensor.Tensor) int {
	if w.Rank() != 2 {
		return 0
	}
	k, n := w.Dim(0), w.Dim(1)
	count := 0
	for _, prec := range []Precision{FP32, FP16} {
		if cachedPrepackedB(w, k, n, prec) != nil {
			count++
		}
	}
	return count
}
