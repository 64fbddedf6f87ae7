package tensorops

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Fused epilogues. A conv/matmul node's bias-add, activation and FP16
// writeback quantization used to run as separate whole-tensor passes
// (three clones and three sweeps per node). The fused path applies them
// to each C row as the GEMM completes it, while the row is still hot in
// cache, with the *identical* per-element operation order as the unfused
// chain: quantize-writeback, add bias, quantize, activate, quantize.
// Each quantization step only runs under FP16, exactly where the old
// chain ran a ToFP16 pass — so fused and unfused results are bit-equal
// (the differential tests pin this).

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
}

func (e Epilogue) empty() bool { return e.Bias == nil && e.Act == ActNone }

// rowEpi is the engine-level epilogue applied to one completed C row.
// perRow selects how bias indexes: by C row (convolution — rows are
// output channels) or by C column (matmul — columns are output
// features). quant adds the FP16 writeback quantization. The fused
// epilogue has assignment semantics, so it is only valid when C was
// zeroed before the GEMM (every conv/matmul output is).
type rowEpi struct {
	bias   []float32
	perRow bool
	act    ActKind
	clip   float32
	quant  bool
}

// apply transforms crow in place; row is the global C row index.
// Nil-receiver safe (no epilogue). The pass order replicates the unfused
// chain exactly: each whole-tensor pass of the old code becomes a
// whole-row pass here, and per-element results are identical.
func (e *rowEpi) apply(crow []float32, row int) {
	if e == nil {
		return
	}
	if e.quant {
		tensor.QuantizeFP16Slice(crow, crow)
	}
	if e.bias != nil {
		if e.perRow {
			bv := e.bias[row]
			for j := range crow {
				//lint:ignore tensoralias crow IS the output row — the fused epilogue transforms the GEMM writeback in place; no input tensor aliases it
				crow[j] += bv
			}
		} else {
			for j := range crow {
				crow[j] += e.bias[j]
			}
		}
		if e.quant {
			tensor.QuantizeFP16Slice(crow, crow)
		}
	}
	if e.act != ActNone {
		switch e.act {
		case ActReLU:
			for j, v := range crow {
				if v < 0 {
					crow[j] = 0
				}
			}
		case ActClippedReLU:
			for j, v := range crow {
				if v < 0 {
					crow[j] = 0
				} else if v > e.clip {
					crow[j] = e.clip
				}
			}
		case ActTanh:
			for j, v := range crow {
				crow[j] = tanh32(v)
			}
		}
		if e.quant {
			tensor.QuantizeFP16Slice(crow, crow)
		}
	}
}

// ApplyEpilogue applies bias + activation (+ FP16 re-quantization after
// each step) to out in place, in a single pass without clones. It serves
// the kernel variants whose epilogue cannot fuse into the GEMM writeback
// (perforated convolution interpolates the raw output first; PROMISE
// perturbs it) and is element-for-element identical to the unfused
// BiasAdd → ToFP16 → Act → ToFP16 chain it replaces. out must already
// carry the kernel's own writeback quantization (convolve's FP16 paths
// guarantee this).
func ApplyEpilogue(out *tensor.Tensor, ep Epilogue, prec Precision) *tensor.Tensor {
	if ep.empty() {
		return out
	}
	quant := prec == FP16
	od := out.Data()
	if ep.Bias == nil {
		epilogueSeg(od, 0, false, ep.Act, ep.Clip, quant)
		return out
	}
	c := ep.Bias.Elems()
	var spatial int
	switch out.Rank() {
	case 4:
		if out.Dim(1) != c {
			panicShape("ApplyEpilogue", "bias length %d != channels %d", c, out.Dim(1))
		}
		spatial = out.Dim(2) * out.Dim(3)
	case 2:
		if out.Dim(1) != c {
			panicShape("ApplyEpilogue", "bias length %d != features %d", c, out.Dim(1))
		}
		spatial = 1
	default:
		panicShape("ApplyEpilogue", "unsupported rank %d", out.Rank())
	}
	bd := ep.Bias.Data()
	parallel.ForChunked(out.Dim(0)*c, func(lo, hi int) {
		for seg := lo; seg < hi; seg++ {
			epilogueSeg(od[seg*spatial:(seg+1)*spatial], bd[seg%c], true, ep.Act, ep.Clip, quant)
		}
	})
	return out
}

// epilogueSeg runs the per-element chain over one channel segment:
// (+bias, quantize), activation, quantize — each quantization gated on
// FP16 and placed exactly where the unfused chain's ToFP16 passes ran.
func epilogueSeg(seg []float32, bv float32, addBias bool, act ActKind, clip float32, quant bool) {
	for i, v := range seg {
		if addBias {
			v += bv
			if quant {
				v = tensor.QuantizeFP16(v)
			}
		}
		switch act {
		case ActReLU:
			if v < 0 {
				v = 0
			}
		case ActClippedReLU:
			if v < 0 {
				v = 0
			} else if v > clip {
				v = clip
			}
		case ActTanh:
			v = tanh32(v)
		}
		if act != ActNone && quant {
			v = tensor.QuantizeFP16(v)
		}
		//lint:ignore tensoralias seg IS the output segment — the epilogue rewrites the conv/matmul result in place; no input tensor aliases it
		seg[i] = v
	}
}
