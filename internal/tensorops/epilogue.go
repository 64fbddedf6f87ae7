package tensorops

import (
	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Epilogues. What follows a conv/matmul node's GEMM — bias-add, activation
// and the FP16 quantization after each — is applied to each C row as the
// GEMM completes it, while the row is still hot in cache, as the chain
// quantize-writeback, add bias, quantize, activate, quantize per element;
// each quantization runs only under FP16. One function, rowEpi.apply, runs
// that chain for every caller: the fused GEMM writeback, perforation's pass
// over each finished plane, ApplyEpilogue for the kernels that cannot fuse,
// and the standalone BiasAdd/ReLU/ClippedReLU/Tanh operators. Under tierAVX
// it is one pass of epilogueRowAVX; rowEpi.passes is the scalar chain it is
// pinned to.

// ActKind selects the activation applied by an Epilogue.
type ActKind int

const (
	ActNone ActKind = iota
	ActReLU
	ActClippedReLU
	ActTanh
)

// Epilogue describes the per-output-channel bias and activation fused
// into a kernel's writeback. The zero value is the empty epilogue.
type Epilogue struct {
	Bias *tensor.Tensor // optional, length = output channels/features
	Act  ActKind
	Clip float32 // ClippedReLU ceiling
	// HalfIn says the input already holds half-precision values — the
	// output of an FP16 producer, which ends in a half round — so an FP16
	// convolution or dense layer reads it as it is instead of rounding a
	// copy into scratch. Rounding is idempotent, so no bit moves. The
	// fused entry points read it; FP32 ignores it.
	HalfIn bool
}

// rowEpi flags: the steps of the chain, in the order they run. The values
// are shared with epilogueRowAVX through go_asm.h.
const (
	epiQuantIn = 1 << iota // the segment is a raw GEMM result: quantize it first
	epiBiasRow             // add bias[row] to every element (conv: a C row is a channel)
	epiBiasCol             // add bias[j] to element j (matmul: a C column is a feature)
	epiQuant               // FP16: quantize after the bias step and after the activation
	epiReLU
	epiClip
	epiTanh
)

// rowEpi is the engine-level epilogue applied to one completed C row. It
// has assignment semantics, so fused into a GEMM it is only valid when C
// was zeroed first (every conv/matmul output is).
type rowEpi struct {
	bias  []float32
	clip  float32
	flags int
}

// newRowEpi builds the chain for ep. perRow selects how bias indexes (see
// epiBiasRow/epiBiasCol), quant the FP16 steps, and raw — a segment fresh
// from the GEMM rather than an already written-back tensor — the leading
// one. It returns nil when the chain has no step.
func newRowEpi(ep Epilogue, perRow, quant, raw bool) *rowEpi {
	e := &rowEpi{clip: ep.Clip}
	if ep.Bias != nil {
		e.bias = ep.Bias.Data()
		if perRow {
			e.flags |= epiBiasRow
		} else {
			e.flags |= epiBiasCol
		}
	}
	switch ep.Act {
	case ActReLU:
		e.flags |= epiReLU
	case ActClippedReLU:
		e.flags |= epiClip
	case ActTanh:
		e.flags |= epiTanh
	}
	if quant && raw {
		e.flags |= epiQuantIn
	}
	if e.flags == 0 {
		return nil
	}
	if quant {
		e.flags |= epiQuant
	}
	return e
}

// apply transforms seg in place; row is the global C row index, and under
// epiBiasCol seg starts at column 0. Nil-receiver safe (no epilogue).
func (e *rowEpi) apply(seg []float32, row int) {
	if e == nil || len(seg) == 0 {
		return
	}
	if gemmTier != tierAVX || len(seg) < rowVec || e.flags&epiQuant != 0 && !cpu.F16C {
		e.passes(seg, row)
		return
	}
	var bias *float32
	switch {
	case e.flags&epiBiasRow != 0:
		bias = &e.bias[row]
	case e.flags&epiBiasCol != 0:
		bias = &e.bias[:len(seg)][0]
	}
	epilogueRowAVX(&seg[0], len(seg), bias, e.flags, e.clip)
}

// passes is the chain in scalar Go, one pass over the segment per step: the
// reference epilogueRowAVX transcribes, the portable tier, and what
// runs on segments shorter than a vector.
func (e *rowEpi) passes(seg []float32, row int) {
	if e.flags&epiQuantIn != 0 {
		tensor.QuantizeFP16Slice(seg, seg)
	}
	if e.flags&(epiBiasRow|epiBiasCol) != 0 {
		if e.flags&epiBiasRow != 0 {
			bv := e.bias[row]
			for j := range seg {
				seg[j] += bv
			}
		} else {
			for j, bv := range e.bias[:len(seg)] {
				seg[j] += bv
			}
		}
		if e.flags&epiQuant != 0 {
			tensor.QuantizeFP16Slice(seg, seg)
		}
	}
	switch {
	case e.flags&epiReLU != 0:
		for j, v := range seg {
			if v < 0 {
				seg[j] = 0
			}
		}
	case e.flags&epiClip != 0:
		for j, v := range seg {
			if v < 0 {
				seg[j] = 0
			} else if v > e.clip {
				seg[j] = e.clip
			}
		}
	case e.flags&epiTanh != 0:
		tanhSlice(seg, seg)
	default:
		return
	}
	if e.flags&epiQuant != 0 {
		tensor.QuantizeFP16Slice(seg, seg)
	}
}

// epiBlock is the unit of parallel dispatch for a bias-less epilogue, which
// has no per-channel state and so splits the flat data: big enough that a
// block of the cheapest step (ReLU) outlasts handing it to another thread.
const epiBlock = 16 << 10

// ApplyEpilogue applies bias + activation (+ FP16 re-quantization after
// each step) to out in place, in a single pass without clones. It serves
// the kernel variant whose epilogue cannot fuse into the engine (PROMISE
// perturbs the raw output first) and the standalone operators in ops.go.
// Under FP16 a kernel's output must already carry its own writeback
// quantization (convolve's FP16 paths guarantee this).
func ApplyEpilogue(out *tensor.Tensor, ep Epilogue, prec Precision) *tensor.Tensor {
	e := newRowEpi(ep, out.Rank() == 4, prec == FP16, false)
	if e == nil {
		return out
	}
	od := out.Data()
	if ep.Bias == nil {
		parallel.ForChunked((len(od)+epiBlock-1)/epiBlock, func(lo, hi int) {
			e.apply(od[lo*epiBlock:min(hi*epiBlock, len(od))], 0)
		})
		return out
	}
	c := ep.Bias.Elems()
	switch out.Rank() {
	case 4:
		// One segment per channel plane, bias by plane.
		if out.Dim(1) != c {
			panicShape("ApplyEpilogue", "bias length %d != channels %d", c, out.Dim(1))
		}
		spatial := out.Dim(2) * out.Dim(3)
		parallel.ForChunked(out.Dim(0)*c, func(lo, hi int) {
			for seg := lo; seg < hi; seg++ {
				e.apply(od[seg*spatial:(seg+1)*spatial], seg%c)
			}
		})
	case 2:
		// One segment per row, bias by column.
		if out.Dim(1) != c {
			panicShape("ApplyEpilogue", "bias length %d != features %d", c, out.Dim(1))
		}
		parallel.ForChunked(out.Dim(0), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e.apply(od[i*c:(i+1)*c], i)
			}
		})
	default:
		panicShape("ApplyEpilogue", "unsupported rank %d", out.Rank())
	}
	return out
}
