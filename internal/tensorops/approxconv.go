package tensorops

import "repro/internal/tensor"

// PerfDirection selects whether perforated convolution skips output rows
// or output columns.
type PerfDirection int

const (
	PerfNone PerfDirection = iota
	PerfRows
	PerfCols
)

func (d PerfDirection) String() string {
	switch d {
	case PerfRows:
		return "row"
	case PerfCols:
		return "col"
	default:
		return "none"
	}
}

// Conv2DFilterSampling computes a convolution with the filter-sampling
// approximation (after Li et al.): 1 out of every `stride` filter elements
// is skipped, the same positions across all feature maps, starting at
// `offset`. Valid strides are 2, 3, 4 (50%, 33%, 25% skip rates) with
// offsets 0..stride-1, giving the paper's 9 knobs. The surviving elements
// are rescaled by stride/(stride-1) so the expected output magnitude is
// preserved, mirroring the rescaling used for reduction sampling.
func Conv2DFilterSampling(x, w *tensor.Tensor, p ConvParams, stride, offset int, prec Precision) *tensor.Tensor {
	return Conv2DFilterSamplingFused(x, w, p, stride, offset, prec, Epilogue{})
}

// Conv2DFilterSamplingFused is Conv2DFilterSampling with a fused
// bias/activation epilogue. The sampled filter positions are dropped from
// both GEMM operands — the weight block is K-compacted (once, and kept on
// the weight, for weights marked cacheable) and the packer never emits the
// matching patch rows — so a 50% knob multiplies half the K extent.
func Conv2DFilterSamplingFused(x, w *tensor.Tensor, p ConvParams, stride, offset int, prec Precision, ep Epilogue) *tensor.Tensor {
	if stride < 2 || stride > 4 {
		panicShape("FilterSampling", "stride %d not in {2,3,4}", stride)
	}
	if offset < 0 || offset >= stride {
		panicShape("FilterSampling", "offset %d not in [0,%d)", offset, stride)
	}
	return convolve(x, w, p, prec, nil, sampSpec{stride, offset}, ep)
}

// SampleFilter returns a copy of w with every stride-th element (per output
// filter, flattened over Ci×Kh×Kw, starting at offset) zeroed and the rest
// rescaled by stride/(stride-1): the definition of the approximation, and
// the reference the differential tests convolve with. The engine consumes
// the same values with the zeros removed (compactSampledFilter).
func SampleFilter(w *tensor.Tensor, stride, offset int) *tensor.Tensor {
	out := w.Clone()
	co := w.Dim(0)
	fvol := w.Elems() / co
	scale := float32(stride) / float32(stride-1)
	od := out.Data()
	for f := 0; f < co; f++ {
		base := f * fvol
		for i := 0; i < fvol; i++ {
			if i%stride == offset {
				od[base+i] = 0
			} else {
				od[base+i] *= scale
			}
		}
	}
	return out
}

// compactSampledFilter returns the (Co × kept) matrix of w's surviving,
// rescaled filter elements: SampleFilter's output without the zeroed
// positions.
func compactSampledFilter(w *tensor.Tensor, samp sampSpec) *tensor.Tensor {
	co := w.Dim(0)
	fvol := w.Elems() / co
	kc := samp.keptK(fvol)
	out := tensor.New(co, kc)
	scale := float32(samp.stride) / float32(samp.stride-1)
	wd, od := w.Data(), out.Data()
	for f := 0; f < co; f++ {
		d := od[f*kc : (f+1)*kc]
		cur := sampCursor{sampSpec: samp}
		k := 0
		for _, v := range wd[f*fvol : (f+1)*fvol] {
			if !cur.drop() {
				d[k] = v * scale
				k++
			}
		}
	}
	return out
}

// Conv2DPerforated computes a convolution with the perforation
// approximation (after Figurnov et al.): 1 out of every `stride` output
// rows (or columns) is not computed and is instead filled with the
// nearest-neighbor average of computed elements. Valid strides are 2, 3, 4
// with offsets 0..stride-1 and two directions, giving the paper's 18 knobs.
func Conv2DPerforated(x, w *tensor.Tensor, p ConvParams, dir PerfDirection, stride, offset int, prec Precision) *tensor.Tensor {
	return Conv2DPerforatedFused(x, w, p, dir, stride, offset, prec, Epilogue{})
}

// Conv2DPerforatedFused is Conv2DPerforated with a fused bias/activation
// epilogue: applied to each output plane right after its skipped positions
// are interpolated (the raw outputs feed the interpolation), instead of as a
// whole-tensor pass afterwards.
func Conv2DPerforatedFused(x, w *tensor.Tensor, p ConvParams, dir PerfDirection, stride, offset int, prec Precision, ep Epilogue) *tensor.Tensor {
	if dir != PerfRows && dir != PerfCols {
		panicShape("Perforated", "direction must be rows or cols")
	}
	if stride < 2 || stride > 4 {
		panicShape("Perforated", "stride %d not in {2,3,4}", stride)
	}
	if offset < 0 || offset >= stride {
		panicShape("Perforated", "offset %d not in [0,%d)", offset, stride)
	}
	return convolve(x, w, p, prec, &perfSpec{dir: dir, stride: stride, offset: offset}, sampSpec{}, ep)
}
