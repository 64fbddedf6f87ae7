package tensorops

import (
	"math"

	"repro/internal/tensor"
)

// INT8 quantization extension (see approx.KindInt8): symmetric per-tensor
// 8-bit quantization. Operands snap to a 255-level grid scaled to the
// tensor's max magnitude; accumulation stays in float32 and the result is
// returned dequantized, mirroring typical int8 GEMM pipelines with fp32
// requantization.

// QuantizeInt8 snaps every element of a copy of t onto the symmetric
// int8 grid scale·[-127, 127] with scale = maxAbs/127.
func QuantizeInt8(t *tensor.Tensor) *tensor.Tensor {
	out := t.ClonePooled()
	d := out.Data()
	var maxAbs float32
	for _, v := range d {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	// all-zero tensor short-circuit before computing the quantization scale
	if maxAbs == 0 {
		return out
	}
	scale := maxAbs / 127
	for i, v := range d {
		q := math.Round(float64(v / scale))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		d[i] = float32(q) * scale
	}
	return out
}

// Conv2DInt8 computes a convolution with int8-quantized input and weights.
func Conv2DInt8(x, w *tensor.Tensor, p ConvParams) *tensor.Tensor {
	xq, wq := QuantizeInt8(x), QuantizeInt8(w)
	defer tensor.Recycle(xq)
	defer tensor.Recycle(wq)
	return convolve(xq, wq, p, FP32, nil, sampSpec{}, Epilogue{})
}

// MatMulInt8 computes a dense layer with int8-quantized operands.
func MatMulInt8(x, w *tensor.Tensor) *tensor.Tensor {
	xq, wq := QuantizeInt8(x), QuantizeInt8(w)
	defer tensor.Recycle(xq)
	defer tensor.Recycle(wq)
	return MatMul(xq, wq, FP32)
}
