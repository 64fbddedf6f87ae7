// Package qos defines the quality-of-service metrics of §2.1/§6.1: a QoS
// metric maps a program's output tensor (plus a reference — gold labels or
// a gold output tensor) to a scalar where higher is better. Classification
// accuracy serves the CNN benchmarks; PSNR serves the image-processing
// benchmark; mean squared error backs the predictive models.
package qos

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Metric scores a program output; higher is better. The reference data
// (labels, gold tensors) is captured inside the metric instance.
type Metric interface {
	Name() string
	Score(out *tensor.Tensor) float64
}

// Accuracy is classification accuracy in percent against gold labels: the
// output is an (N,K) probability or logit tensor and the prediction is the
// per-row argmax.
type Accuracy struct {
	Labels []int
}

// Name implements Metric.
func (a Accuracy) Name() string { return "accuracy" }

// Score returns the percentage of rows whose argmax matches the label.
func (a Accuracy) Score(out *tensor.Tensor) float64 {
	preds := out.RowArgMax()
	if len(preds) != len(a.Labels) {
		panic(fmt.Sprintf("qos: %d predictions vs %d labels", len(preds), len(a.Labels)))
	}
	if len(preds) == 0 {
		return 0
	}
	correct := 0
	for i, p := range preds {
		if p == a.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(preds))
}

// PSNR is peak signal-to-noise ratio in dB against a gold output tensor.
// Following §6.1 (with signals normalized to a unit peak) it is
// -10·log10(MSE); higher is better.
type PSNR struct {
	Gold *tensor.Tensor
}

// Name implements Metric.
func (p PSNR) Name() string { return "psnr" }

// Score returns the PSNR of out against the gold tensor.
func (p PSNR) Score(out *tensor.Tensor) float64 {
	return PSNRValue(out, p.Gold)
}

// PSNRValue computes -10·log10(MSE(x, gold)), capped at 100 dB for
// identical tensors.
func PSNRValue(x, gold *tensor.Tensor) float64 {
	mse := tensor.MSE(x, gold)
	if mse <= 1e-10 {
		return 100
	}
	return -10 * math.Log10(mse)
}

// NegMSE scores by negative mean squared error against a gold tensor
// (higher is better); it is the metric form the predictive models use for
// image pipelines ("mean square error (exponential of PSNR)", §6.1).
type NegMSE struct {
	Gold *tensor.Tensor
}

// Name implements Metric.
func (n NegMSE) Name() string { return "neg_mse" }

// Score returns -MSE(out, gold).
func (n NegMSE) Score(out *tensor.Tensor) float64 {
	return -tensor.MSE(out, n.Gold)
}
