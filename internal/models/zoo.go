package models

import (
	"fmt"
	"sort"

	"repro/internal/datasets"
)

// Benchmark is one row of the paper's Table 1: a model, its dataset (with
// planted labels), and the FP32 baseline accuracy.
type Benchmark struct {
	Name        string
	Model       *Model
	Dataset     *datasets.Dataset
	BaselineAcc float64 // planted Table-1 accuracy, percent
}

// Scale controls the size of a built benchmark. The zero value is
// replaced by DefaultScale.
type Scale struct {
	Images       int     // dataset size (split 50/50 into calibration/test)
	Width        float64 // channel-width multiplier
	ImageNetSize int     // input resolution for the ImageNet benchmarks
	Seed         int64
}

// DefaultScale is sized for a single-core host: small calibration sets and
// quarter-width channels (see DESIGN.md §1). The paper used 10K images and
// full-width networks.
var DefaultScale = Scale{Images: 64, Width: 0.25, ImageNetSize: 64, Seed: 1}

func (s Scale) norm() Scale {
	if s.Images == 0 {
		s.Images = DefaultScale.Images
	}
	if s.Width == 0 {
		s.Width = DefaultScale.Width
	}
	if s.ImageNetSize == 0 {
		s.ImageNetSize = DefaultScale.ImageNetSize
	}
	if s.Seed == 0 {
		s.Seed = DefaultScale.Seed
	}
	return s
}

// benchSpec wires a Table-1 row to its builders.
type benchSpec struct {
	name      string
	targetAcc float64 // Table 1 baseline accuracy
	layers    int     // Table 1 layer count (checked by tests)
	build     func(s Scale) (*Model, *datasets.Dataset)
}

// imagenetClasses is the class count of the mini-ImageNet stand-in (the
// paper sampled 200 ILSVRC classes; we use 50 at reduced resolution).
const imagenetClasses = 50

var zoo = []benchSpec{
	{"lenet", 98.70, 4, func(s Scale) (*Model, *datasets.Dataset) {
		return LeNet(s.Seed, s.Width), datasets.MNISTLike(s.Images, s.Seed+1000)
	}},
	{"alexnet", 79.16, 6, func(s Scale) (*Model, *datasets.Dataset) {
		return AlexNetCIFAR(s.Seed, s.Width), datasets.CIFARLike(s.Images, 10, s.Seed+1001)
	}},
	{"alexnet2", 85.09, 7, func(s Scale) (*Model, *datasets.Dataset) {
		return AlexNet2(s.Seed, s.Width), datasets.CIFARLike(s.Images, 10, s.Seed+1002)
	}},
	{"alexnet_imagenet", 55.86, 8, func(s Scale) (*Model, *datasets.Dataset) {
		return AlexNetImageNet(s.Seed, s.Width, s.ImageNetSize, imagenetClasses),
			datasets.MiniImageNet(s.Images, s.ImageNetSize, imagenetClasses, s.Seed+1003)
	}},
	{"vgg16_10", 89.41, 15, func(s Scale) (*Model, *datasets.Dataset) {
		return VGG16("vgg16_10", s.Seed, s.Width, 32, 10), datasets.CIFARLike(s.Images, 10, s.Seed+1004)
	}},
	{"vgg16_100", 66.50, 15, func(s Scale) (*Model, *datasets.Dataset) {
		return VGG16("vgg16_100", s.Seed, s.Width, 32, 100), datasets.CIFARLike(s.Images, 100, s.Seed+1005)
	}},
	{"vgg16_imagenet", 72.88, 15, func(s Scale) (*Model, *datasets.Dataset) {
		return VGG16("vgg16_imagenet", s.Seed, s.Width, s.ImageNetSize, imagenetClasses),
			datasets.MiniImageNet(s.Images, s.ImageNetSize, imagenetClasses, s.Seed+1006)
	}},
	{"resnet18", 89.44, 22, func(s Scale) (*Model, *datasets.Dataset) {
		return ResNet18(s.Seed, s.Width), datasets.CIFARLike(s.Images, 10, s.Seed+1007)
	}},
	{"resnet50", 74.16, 54, func(s Scale) (*Model, *datasets.Dataset) {
		return ResNet50(s.Seed, s.Width, s.ImageNetSize, imagenetClasses),
			datasets.MiniImageNet(s.Images, s.ImageNetSize, imagenetClasses, s.Seed+1008)
	}},
	{"mobilenet", 83.69, 28, func(s Scale) (*Model, *datasets.Dataset) {
		return MobileNet(s.Seed, s.Width), datasets.CIFARLike(s.Images, 10, s.Seed+1009)
	}},
}

// Names lists the benchmark names in Table-1 order.
func Names() []string {
	out := make([]string, len(zoo))
	for i, s := range zoo {
		out[i] = s.name
	}
	return out
}

// TableLayers returns the Table-1 layer count for a benchmark name.
func TableLayers(name string) (int, bool) {
	for _, s := range zoo {
		if s.name == name {
			return s.layers, true
		}
	}
	return 0, false
}

// Build constructs a benchmark by name at the given scale, planting labels
// to pin the baseline accuracy.
func Build(name string, s Scale) (*Benchmark, error) {
	s = s.norm()
	for _, spec := range zoo {
		if spec.name != name {
			continue
		}
		m, ds := spec.build(s)
		acc := PlantLabels(m, ds, spec.targetAcc, 32, s.Seed+2000)
		return &Benchmark{Name: name, Model: m, Dataset: ds, BaselineAcc: acc}, nil
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("models: unknown benchmark %q (known: %v)", name, known)
}

// MustBuild is Build that panics on error.
func MustBuild(name string, s Scale) *Benchmark {
	b, err := Build(name, s)
	if err != nil {
		panic(err)
	}
	return b
}
