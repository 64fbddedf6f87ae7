// Package canny implements the Canny edge-detection pipeline as an
// ApproxHPVM-style tensor-op graph, and the composite CNN + image
// processing benchmark of §7.6: an AlexNet2 classifier on CIFAR-like
// images whose predictions route images from five of the ten classes into
// the edge-detection pipeline. The benchmark's QoS is a pair —
// classification accuracy for the CNN and PSNR for the edge maps — and
// because the number of routed images depends on the classifier's output,
// the raw output shape varies with the configuration, so only the Π2
// prediction model applies (§7.6).
package canny

import (
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// Pipeline builds the Canny edge-detection graph for (N, C, H, W) inputs:
// grayscale (1×1 conv), Gaussian blur (5×5 conv), Sobel gradients (two
// 3×3 convs), magnitude (map ops), non-maximum suppression and
// double-threshold hysteresis. The convolution stages are regular conv
// nodes and accept the full convolution knob set (sampling, perforation,
// FP16), which is what makes the pipeline tunable.
func Pipeline(channels int, lo, hi float32) *graph.Graph {
	g := graph.New("canny")

	// Grayscale: 1×1 convolution averaging the channels.
	grayW := tensor.New(1, channels, 1, 1)
	for i := range grayW.Data() {
		grayW.Data()[i] = 1.0 / float32(channels)
	}
	gray := g.Conv(g.InputID(), grayW, nil, tensorops.ConvParams{}, "grayscale")

	// Gaussian blur 5×5, σ ≈ 1.
	blurW := tensor.New(1, 1, 5, 5)
	fillGaussian(blurW, 1.0)
	blur := g.Conv(gray, blurW, nil, tensorops.ConvParams{PadH: 2, PadW: 2}, "gaussian")

	// Sobel gradients.
	sx := tensor.FromSlice([]float32{
		-1, 0, 1,
		-2, 0, 2,
		-1, 0, 1,
	}, 1, 1, 3, 3)
	sy := tensor.FromSlice([]float32{
		-1, -2, -1,
		0, 0, 0,
		1, 2, 1,
	}, 1, 1, 3, 3)
	gx := g.Conv(blur, sx, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, "sobel_x")
	gy := g.Conv(blur, sy, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, "sobel_y")

	// Magnitude = sqrt(gx² + gy²).
	gx2 := g.Mul(gx, gx)
	gy2 := g.Mul(gy, gy)
	magSq := g.Add(gx2, gy2)
	mag := g.Sqrt(magSq)

	nms := g.NMS(mag, gx, gy)
	g.Hysteresis(nms, lo, hi)
	return g
}

func fillGaussian(w *tensor.Tensor, sigma float64) {
	k := w.Dim(2)
	c := float64(float64(k-1) / 2) // rounded, or arm64 fuses its ·0.5 into y−c
	var sum float64
	d := w.Data()
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			dy, dx := float64(y)-c, float64(x)-c
			v := math.Exp(-(float64(dy*dy) + float64(dx*dx)) / (2 * sigma * sigma))
			d[y*k+x] = float32(v)
			sum += v
		}
	}
	for i := range d {
		d[i] /= float32(sum)
	}
}
