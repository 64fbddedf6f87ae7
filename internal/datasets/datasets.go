// Package datasets generates the deterministic synthetic image sets that
// stand in for MNIST, CIFAR-10 and ImageNet (ILSVRC 2012) in this
// reproduction. The paper draws 10K images per dataset and splits them
// into a 5K calibration set (for autotuning) and a 5K test set (§6); the
// same split protocol is implemented here at a configurable scale.
//
// Images are smooth random textures (sums of random 2-D Gaussian bumps
// plus pixel noise), which give convolutional networks spatially
// structured inputs with varied activations. Gold labels are not sampled
// here: they are planted from each network's own baseline output by
// internal/models, which pins the FP32 baseline accuracy to the paper's
// Table 1 values by construction (see DESIGN.md §1).
package datasets

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Dataset is a labeled image set.
type Dataset struct {
	Name    string
	Images  *tensor.Tensor // (N, C, H, W), values in [0, 1]
	Labels  []int          // len N; planted by internal/models
	Classes int
}

// N returns the number of images.
func (d *Dataset) N() int { return d.Images.Dim(0) }

// Slice returns a view dataset of images [lo, hi).
func (d *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > d.N() || lo > hi {
		panic(fmt.Sprintf("datasets: bad slice [%d,%d) of %d", lo, hi, d.N()))
	}
	c, h, w := d.Images.Dim(1), d.Images.Dim(2), d.Images.Dim(3)
	per := c * h * w
	img := tensor.FromSlice(d.Images.Data()[lo*per:hi*per], hi-lo, c, h, w)
	var labels []int
	if d.Labels != nil {
		labels = d.Labels[lo:hi]
	}
	return &Dataset{Name: d.Name, Images: img, Labels: labels, Classes: d.Classes}
}

// Split divides the dataset into calibration and test halves, following
// the paper's 50/50 protocol.
func (d *Dataset) Split() (calib, test *Dataset) {
	half := d.N() / 2
	return d.Slice(0, half), d.Slice(half, d.N())
}

// Batches cuts the dataset into batches of the given size (the final
// short batch is dropped, matching fixed-batch inference).
func (d *Dataset) Batches(size int) []*Dataset {
	var out []*Dataset
	for lo := 0; lo+size <= d.N(); lo += size {
		out = append(out, d.Slice(lo, lo+size))
	}
	return out
}

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Name       string
	N, C, H, W int
	Classes    int
	Bumps      int     // Gaussian bumps per image
	NoiseStd   float64 // pixel noise
	Seed       int64
}

// Generate builds a dataset per the spec.
func Generate(s Spec) *Dataset {
	if s.Bumps == 0 {
		s.Bumps = 4
	}
	if s.NoiseStd == 0 {
		s.NoiseStd = 0.05
	}
	rng := tensor.NewRNG(s.Seed)
	img := tensor.New(s.N, s.C, s.H, s.W)
	d := img.Data()
	per := s.C * s.H * s.W
	for n := 0; n < s.N; n++ {
		base := n * per
		// Shared bump field across channels with per-channel gain, so
		// channels correlate like natural images.
		type bump struct{ cx, cy, sx, sy, amp float64 }
		bumps := make([]bump, s.Bumps)
		for b := range bumps {
			bumps[b] = bump{
				cx:  rng.Float64() * float64(s.W),
				cy:  rng.Float64() * float64(s.H),
				sx:  1.5 + rng.Float64()*float64(s.W)/3,
				sy:  1.5 + rng.Float64()*float64(s.H)/3,
				amp: 0.4 + float64(rng.Float64()*0.6),
			}
		}
		for c := 0; c < s.C; c++ {
			gain := 0.6 + float64(rng.Float64()*0.8)
			cbase := base + c*s.H*s.W
			for y := 0; y < s.H; y++ {
				for x := 0; x < s.W; x++ {
					v := 0.0
					for _, b := range bumps {
						dx := (float64(x) - b.cx) / b.sx
						dy := (float64(y) - b.cy) / b.sy
						v += float64(b.amp * math.Exp(-(float64(dx*dx)+float64(dy*dy))/2))
					}
					v = float64(v*gain) + float64(rng.NormFloat64()*s.NoiseStd)
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					d[cbase+y*s.W+x] = float32(v)
				}
			}
		}
	}
	return &Dataset{Name: s.Name, Images: img, Classes: s.Classes}
}

// MNISTLike generates n 28×28 grayscale images with 10 classes.
func MNISTLike(n int, seed int64) *Dataset {
	return Generate(Spec{Name: "mnist", N: n, C: 1, H: 28, W: 28, Classes: 10, Bumps: 3, Seed: seed})
}

// CIFARLike generates n 32×32 RGB images with the given class count
// (10 for CIFAR-10, 100 for CIFAR-100).
func CIFARLike(n, classes int, seed int64) *Dataset {
	name := "cifar10"
	if classes != 10 {
		name = fmt.Sprintf("cifar%d", classes)
	}
	return Generate(Spec{Name: name, N: n, C: 3, H: 32, W: 32, Classes: classes, Seed: seed})
}

// MiniImageNet generates n RGB images at the given spatial size with the
// given class count — the stand-in for the paper's 200-class ILSVRC
// sample, scaled down for a single-core host (DESIGN.md §1).
func MiniImageNet(n, size, classes int, seed int64) *Dataset {
	return Generate(Spec{Name: "imagenet", N: n, C: 3, H: size, W: size, Classes: classes, Bumps: 6, Seed: seed})
}
