// Package models builds the ten CNN benchmarks of the paper's Table 1 as
// ApproxHPVM-style dataflow graphs, with layer/op counts faithful to the
// paper (e.g. ResNet-18 → 22 tensor operations with 21 convolutions,
// ResNet-50 → 54, MobileNet → 28). Channel widths and the ImageNet input
// resolution are scaled down by a width multiplier so profile collection
// and tuning complete on a single-core host; layer structure — which
// drives search-space sizes and the per-layer knob characterization — is
// unchanged (DESIGN.md §1).
//
// Weights are deterministic synthetic (He/Xavier initialized from a fixed
// seed). Gold labels are planted from each network's own FP32 baseline
// output with a controlled fraction flipped, which pins baseline accuracy
// to the Table 1 value by construction while leaving approximation-induced
// accuracy degradation to emerge from real execution of the real
// approximate kernels.
package models

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// Model couples a graph with its input geometry.
type Model struct {
	Graph   *graph.Graph
	C, H, W int // per-image input shape
	Classes int
}

// InputShape returns the (N,C,H,W) shape for a batch of n images.
func (m *Model) InputShape(n int) tensor.Shape {
	return tensor.NewShape(n, m.C, m.H, m.W)
}

// builder accumulates a CNN under construction.
type builder struct {
	g         *graph.Graph
	rng       *tensor.RNG
	last      int
	c, h, w   int // current activation geometry
	width     float64
	convCount int
}

func newBuilder(name string, rng *tensor.RNG, c, h, w int, width float64) *builder {
	return &builder{g: graph.New(name), rng: rng, last: 0, c: c, h: h, w: w, width: width}
}

// ch scales a nominal channel count by the width multiplier (min 4).
func (b *builder) ch(n int) int {
	s := int(math.Round(float64(n) * b.width))
	if s < 4 {
		s = 4
	}
	return s
}

// conv appends conv(+bias+ReLU) with `out` already-scaled output channels.
func (b *builder) conv(out, k, stride, pad int, act graph.Activation) int {
	return b.convFrom(b.last, out, k, stride, pad, act, 1)
}

// convFrom appends a convolution reading from src. The builder's current
// geometry (b.c/b.h/b.w) must describe src; residual-branch callers reset
// it before taking a side path.
func (b *builder) convFrom(src, out, k, stride, pad int, act graph.Activation, groups int) int {
	cin := b.c
	w := tensor.New(out, cin/groups, k, k)
	b.rng.FillHe(w, cin/groups*k*k)
	// Trained convolution filters are spatially smooth, which is exactly
	// the redundancy filter sampling and perforation exploit; i.i.d.
	// random filters have none, and a single sampled operator would
	// destroy the network. Low-pass filtering the synthetic weights
	// restores trained-like robustness (the subsequent standardization
	// pass rescales the magnitudes).
	smoothFilters(w)
	bias := tensor.New(out)
	b.rng.FillNormal(bias, 0, 0.05)
	b.convCount++
	id := b.g.ConvAct(src, w, bias, tensorops.ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups},
		act, 6, fmt.Sprintf("conv%d", b.convCount))
	b.last = id
	b.c = out
	b.h = tensor.ConvOutDim(b.h, k, stride, pad)
	b.w = tensor.ConvOutDim(b.w, k, stride, pad)
	return id
}

// smoothFilters low-pass filters each (kh,kw) plane of a weight tensor
// with a separable [1 2 1]/4 kernel (replicated borders) and mildly
// correlates adjacent input channels, mimicking the spatial smoothness and
// channel redundancy of trained filters.
func smoothFilters(w *tensor.Tensor) {
	co, ci, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	d := w.Data()
	if kh >= 3 || kw >= 3 {
		tmp := make([]float32, kh*kw)
		blur1 := func(a, b, c float32) float32 { return float32(0.25*a) + float32(0.5*b) + float32(0.25*c) }
		for fp := 0; fp < 2*co*ci; fp++ { // two smoothing passes per plane
			f := fp % (co * ci)
			plane := d[f*kh*kw : (f+1)*kh*kw]
			// horizontal pass
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					l, r := x-1, x+1
					if l < 0 {
						l = 0
					}
					if r >= kw {
						r = kw - 1
					}
					tmp[y*kw+x] = blur1(plane[y*kw+l], plane[y*kw+x], plane[y*kw+r])
				}
			}
			// vertical pass
			for y := 0; y < kh; y++ {
				u, dn := y-1, y+1
				if u < 0 {
					u = 0
				}
				if dn >= kh {
					dn = kh - 1
				}
				for x := 0; x < kw; x++ {
					plane[y*kw+x] = blur1(tmp[u*kw+x], tmp[y*kw+x], tmp[dn*kw+x])
				}
			}
		}
	}
	// Mild channel correlation: average each input-channel slice with its
	// neighbor, per output filter.
	if ci >= 2 {
		plane := kh * kw
		for f := 0; f < co; f++ {
			base := f * ci * plane
			for c := ci - 1; c > 0; c-- {
				cur := d[base+c*plane : base+(c+1)*plane]
				prev := d[base+(c-1)*plane : base+c*plane]
				for i := range cur {
					cur[i] = float32(0.75*cur[i]) + float32(0.25*prev[i])
				}
			}
		}
	}
}

func (b *builder) maxPool(k, stride int) int {
	id := b.g.MaxPool(b.last, tensorops.PoolParams{KH: k, KW: k, StrideH: stride, StrideW: stride})
	b.last = id
	b.h = tensor.ConvOutDim(b.h, k, stride, 0)
	b.w = tensor.ConvOutDim(b.w, k, stride, 0)
	return id
}

func (b *builder) avgPool(k, stride int) int {
	id := b.g.AvgPool(b.last, tensorops.PoolParams{KH: k, KW: k, StrideH: stride, StrideW: stride})
	b.last = id
	b.h = tensor.ConvOutDim(b.h, k, stride, 0)
	b.w = tensor.ConvOutDim(b.w, k, stride, 0)
	return id
}

func (b *builder) globalAvgPool() int {
	id := b.g.GlobalAvgPool(b.last)
	b.last = id
	b.h, b.w = 1, 1
	return id
}

// fc appends flatten (if needed) + dense(+bias) with optional activation.
func (b *builder) fc(out int, act graph.Activation) int {
	in := b.c * b.h * b.w
	fl := b.g.Flatten(b.last)
	w := tensor.New(in, out)
	b.rng.FillXavier(w, in, out)
	bias := tensor.New(out)
	b.rng.FillNormal(bias, 0, 0.05)
	id := b.g.MatMulAct(fl, w, bias, act, 6, fmt.Sprintf("fc%d", out))
	b.last = id
	b.c, b.h, b.w = out, 1, 1
	return id
}

func (b *builder) softmax() {
	b.last = b.g.Softmax(b.last)
}

// probeImages is the batch finish executes to standardize the weights.
const probeImages = 8

func (b *builder) finish(c, h, w, classes int) *Model {
	if errs := b.g.ValidateDeep(tensor.NewShape(1, c, h, w)); len(errs) > 0 {
		panic("models: " + errors.Join(errs...).Error())
	}
	// Fold probe-batch normalization statistics into the weights (the
	// inference-time equivalent of trained batch norm); without this, deep
	// randomly-initialized stacks produce degenerate logits.
	probe := datasets.Generate(datasets.Spec{Name: "probe", N: probeImages, C: c, H: h, W: w, Classes: 1, Seed: 424242})
	b.g.StandardizeWeights(probe.Images)
	return &Model{Graph: b.g, C: c, H: h, W: w, Classes: classes}
}

// LeNet builds the 4-layer LeNet-5 variant (2 conv + 2 fc) for 28×28
// grayscale input.
func LeNet(seed int64, width float64) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("lenet", rng, 1, 28, 28, width)
	b.conv(b.ch(32), 5, 1, 2, graph.ActTanh)
	b.maxPool(2, 2)
	b.conv(b.ch(64), 5, 1, 2, graph.ActTanh)
	b.maxPool(2, 2)
	b.fc(b.ch(256), graph.ActTanh)
	b.fc(10, graph.ActNone)
	b.softmax()
	return b.finish(1, 28, 28, 10)
}

// AlexNetCIFAR builds the 6-layer AlexNet (5 conv + 1 fc) for 32×32 RGB.
func AlexNetCIFAR(seed int64, width float64) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("alexnet", rng, 3, 32, 32, width)
	b.conv(b.ch(64), 11, 1, 5, graph.ActTanh)
	b.maxPool(2, 2)
	b.conv(b.ch(192), 5, 1, 2, graph.ActTanh)
	b.maxPool(2, 2)
	b.conv(b.ch(384), 3, 1, 1, graph.ActTanh)
	b.conv(b.ch(256), 3, 1, 1, graph.ActTanh)
	b.conv(b.ch(256), 3, 1, 1, graph.ActTanh)
	b.maxPool(2, 2)
	b.fc(10, graph.ActNone)
	b.softmax()
	return b.finish(3, 32, 32, 10)
}

// AlexNet2 builds the 7-layer AlexNet2 (6 conv + 1 fc) for 32×32 RGB.
func AlexNet2(seed int64, width float64) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("alexnet2", rng, 3, 32, 32, width)
	b.conv(b.ch(32), 3, 1, 1, graph.ActTanh)
	b.conv(b.ch(32), 3, 1, 1, graph.ActTanh)
	b.maxPool(2, 2)
	b.conv(b.ch(64), 3, 1, 1, graph.ActTanh)
	b.conv(b.ch(64), 3, 1, 1, graph.ActTanh)
	b.maxPool(2, 2)
	b.conv(b.ch(128), 3, 1, 1, graph.ActTanh)
	b.conv(b.ch(128), 3, 1, 1, graph.ActTanh)
	b.maxPool(2, 2)
	b.fc(10, graph.ActNone)
	b.softmax()
	return b.finish(3, 32, 32, 10)
}

// AlexNetImageNet builds the 8-layer AlexNet (5 conv + 3 fc) for the
// mini-ImageNet input (64×64 RGB by default).
func AlexNetImageNet(seed int64, width float64, size, classes int) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("alexnet_imagenet", rng, 3, size, size, width)
	b.conv(b.ch(64), 7, 2, 3, graph.ActReLU)
	b.maxPool(2, 2)
	b.conv(b.ch(192), 5, 1, 2, graph.ActReLU)
	b.maxPool(2, 2)
	b.conv(b.ch(384), 3, 1, 1, graph.ActReLU)
	b.conv(b.ch(256), 3, 1, 1, graph.ActReLU)
	b.conv(b.ch(256), 3, 1, 1, graph.ActReLU)
	b.maxPool(2, 2)
	b.fc(b.ch(1024), graph.ActReLU)
	b.fc(b.ch(1024), graph.ActReLU)
	b.fc(classes, graph.ActNone)
	b.softmax()
	return b.finish(3, size, size, classes)
}

// VGG16 builds the 15-layer VGG-16 (13 conv + 2 fc) for the given input
// size and class count (CIFAR-10, CIFAR-100 or mini-ImageNet).
func VGG16(name string, seed int64, width float64, size, classes int) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder(name, rng, 3, size, size, width)
	stage := func(n, reps int) {
		for i := 0; i < reps; i++ {
			b.conv(b.ch(n), 3, 1, 1, graph.ActReLU)
		}
		b.maxPool(2, 2)
	}
	stage(64, 2)
	stage(128, 2)
	stage(256, 3)
	stage(512, 3)
	if size >= 64 {
		stage(512, 3)
	} else {
		// 32×32 input: keep 13 convs but stop pooling at 2×2.
		for i := 0; i < 3; i++ {
			b.conv(b.ch(512), 3, 1, 1, graph.ActReLU)
		}
	}
	b.fc(b.ch(512), graph.ActReLU)
	b.fc(classes, graph.ActNone)
	b.softmax()
	return b.finish(3, size, size, classes)
}

// ResNet18 builds the 22-op ResNet-18 for 32×32 RGB: conv1 + 4 stages of
// 2 basic blocks (16 convs) + 4 projection shortcuts = 21 convolutions,
// plus the final dense layer.
func ResNet18(seed int64, width float64) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("resnet18", rng, 3, 32, 32, width)
	b.conv(b.ch(64), 3, 1, 1, graph.ActReLU)

	basicBlock := func(out, stride int, project bool) {
		inID, inC, inH, inW := b.last, b.c, b.h, b.w
		b.conv(out, 3, stride, 1, graph.ActReLU)
		mainID := b.conv(out, 3, 1, 1, graph.ActNone)
		short := inID
		if project {
			// 1×1 projection on the shortcut path.
			b.last, b.c, b.h, b.w = inID, inC, inH, inW
			short = b.conv(out, 1, stride, 0, graph.ActNone)
		}
		b.last = b.g.Add(mainID, short)
		b.last = b.g.ReLU(b.last)
		b.c = out
	}
	stages := []struct {
		ch, stride int
	}{{64, 1}, {128, 2}, {256, 2}, {512, 2}}
	for _, s := range stages {
		out := b.ch(s.ch)
		basicBlock(out, s.stride, true) // every stage starts with a projection
		basicBlock(out, 1, false)
	}
	b.globalAvgPool()
	b.fc(10, graph.ActNone)
	b.softmax()
	return b.finish(3, 32, 32, 10)
}

// ResNet50 builds the 54-op ResNet-50 for mini-ImageNet input: conv1 + 16
// bottleneck blocks of 3 convs + 4 projections = 53 convolutions, plus the
// final dense layer.
func ResNet50(seed int64, width float64, size, classes int) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("resnet50", rng, 3, size, size, width)
	b.conv(b.ch(64), 7, 2, 3, graph.ActReLU)
	b.maxPool(2, 2)

	bottleneck := func(mid, out, stride int, project bool) {
		inID, inC, inH, inW := b.last, b.c, b.h, b.w
		b.conv(mid, 1, 1, 0, graph.ActReLU)
		b.conv(mid, 3, stride, 1, graph.ActReLU)
		mainID := b.conv(out, 1, 1, 0, graph.ActNone)
		short := inID
		if project {
			b.last, b.c, b.h, b.w = inID, inC, inH, inW
			short = b.conv(out, 1, stride, 0, graph.ActNone)
		}
		b.last = b.g.Add(mainID, short)
		b.last = b.g.ReLU(b.last)
		b.c = out
	}
	stages := []struct {
		mid, reps, stride int
	}{{64, 3, 1}, {128, 4, 2}, {256, 6, 2}, {512, 3, 2}}
	for _, s := range stages {
		mid := b.ch(s.mid)
		out := b.ch(s.mid * 4)
		bottleneck(mid, out, s.stride, true)
		for i := 1; i < s.reps; i++ {
			bottleneck(mid, out, 1, false)
		}
	}
	b.globalAvgPool()
	b.fc(classes, graph.ActNone)
	b.softmax()
	return b.finish(3, size, size, classes)
}

// MobileNet builds the 28-op MobileNet for 32×32 RGB: conv1 + 13
// depthwise-separable pairs (26 convs) = 27 convolutions + 1 dense.
func MobileNet(seed int64, width float64) *Model {
	rng := tensor.NewRNG(seed)
	b := newBuilder("mobilenet", rng, 3, 32, 32, width)
	b.conv(b.ch(32), 3, 1, 1, graph.ActClippedReLU)
	dwSep := func(out, stride int) {
		// depthwise 3×3 (groups = channels), then pointwise 1×1
		b.convFrom(b.last, b.c, 3, stride, 1, graph.ActClippedReLU, b.c)
		b.conv(out, 1, 1, 0, graph.ActClippedReLU)
	}
	plan := []struct {
		ch, stride int
	}{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1},
	}
	for _, p := range plan {
		dwSep(b.ch(p.ch), p.stride)
	}
	b.globalAvgPool()
	b.fc(10, graph.ActNone)
	b.softmax()
	return b.finish(3, 32, 32, 10)
}

// PlantLabels assigns gold labels derived from the model's FP32 baseline
// predictions, flipping a deterministic fraction so the baseline accuracy
// equals targetAcc (percent). The flips are placed on the images with the
// smallest top-2 prediction margin: a trained network is wrong precisely
// on its hard, low-confidence examples, so the surviving "correct" set is
// high-margin and — like a trained model's — robust to the moderate
// output perturbations approximations introduce. It runs the baseline in
// batches of batchSize, sets ds.Labels, and returns the exact resulting
// baseline accuracy.
func PlantLabels(m *Model, ds *datasets.Dataset, targetAcc float64, batchSize int, seed int64) float64 {
	n := ds.N()
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	preds := make([]int, 0, n)
	margins := make([]float64, 0, n)
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		out := m.Graph.Execute(ds.Slice(lo, hi).Images, nil, graph.ExecOptions{})
		preds = append(preds, out.RowArgMax()...)
		for r := 0; r < hi-lo; r++ {
			margins = append(margins, top2Margin(out.Row(r)))
		}
	}
	labels := make([]int, n)
	copy(labels, preds)
	// Flip lowest-margin images, stratified over the calibration/test
	// halves so both halves end up at the target accuracy (Split cuts the
	// dataset in the middle).
	flips := int(math.Round((1 - targetAcc/100) * float64(n)))
	rng := tensor.NewRNG(seed)
	half := n / 2
	flipLowMargin := func(lo, hi, k int) {
		order := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool { return margins[order[a]] < margins[order[b]] })
		for i := 0; i < k && i < len(order); i++ {
			idx := order[i]
			// move to a different class deterministically
			labels[idx] = (preds[idx] + 1 + rng.Intn(ds.Classes-1)) % ds.Classes
		}
	}
	firstHalf := flips / 2
	flipLowMargin(0, half, firstHalf)
	flipLowMargin(half, n, flips-firstHalf)
	ds.Labels = labels
	return 100 * float64(n-flips) / float64(n)
}

// top2Margin returns the gap between the largest and second-largest value
// of a probability row.
func top2Margin(row []float32) float64 {
	best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
	for _, v := range row {
		if v > best {
			second = best
			best = v
		} else if v > second {
			second = v
		}
	}
	return float64(best - second)
}

// Prune zeroes the smallest-magnitude fraction of each convolution's
// weights in place (magnitude pruning per layer), the model-compression
// baseline of the paper's §8 study. It returns the overall fraction of
// conv weights now zero.
func Prune(m *Model, fraction float64) float64 {
	if fraction < 0 || fraction >= 1 {
		panic(fmt.Sprintf("models: bad prune fraction %v", fraction))
	}
	var total, zeroed int
	for _, n := range m.Graph.Nodes {
		if n.Kind != graph.OpConv {
			continue
		}
		d := n.Weight.Data()
		total += len(d)
		k := int(float64(len(d)) * fraction)
		if k == 0 {
			continue
		}
		// threshold = k-th smallest |w|
		mags := make([]float64, len(d))
		for i, v := range d {
			mags[i] = math.Abs(float64(v))
		}
		slices.Sort(mags)
		thr := mags[k-1]
		for i, v := range d {
			if math.Abs(float64(v)) <= thr {
				d[i] = 0
				zeroed++
			}
		}
		// Weights changed in place: drop any cached packed/quantized copies.
		n.InvalidateWeight()
	}
	if total == 0 {
		return 0
	}
	return float64(zeroed) / float64(total)
}
