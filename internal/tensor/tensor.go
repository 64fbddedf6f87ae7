// Package tensor provides the dense tensor representation used throughout
// the ApproxTuner reproduction: a float32 buffer with an NCHW-style shape,
// plus the shape algebra, elementwise helpers, deterministic random fills,
// and the simulated IEEE FP16 storage precision that the approximation
// kernels build on.
package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Tensor is a dense row-major float32 tensor. The canonical layout for
// 4-D activations is NCHW (batch, channels, height, width), matching the
// tensor-operation definitions in ApproxHPVM that the paper builds on.
// A Tensor with an empty shape is a scalar holding one element.
type Tensor struct {
	shape Shape
	data  []float32

	// derived is nil until MarkCacheable; then it points at the current
	// immutable set of operands derived from data (derived.go). deriveMu
	// serializes the builders that replace it.
	derived  atomic.Pointer[derivedSet]
	deriveMu sync.Mutex
}

// New allocates a zero-filled tensor of the given shape.
func New(dims ...int) *Tensor {
	s := NewShape(dims...)
	return &Tensor{shape: s, data: make([]float32, s.Elems())}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, dims ...int) *Tensor {
	s := NewShape(dims...)
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), s, s.Elems()))
	}
	return &Tensor{shape: s, data: data}
}

// Scalar returns a 0-d tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: NewShape(), data: []float32{v}}
}

// Shape returns the tensor's shape. The returned value must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Elems returns the number of elements.
func (t *Tensor) Elems() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape.Dim(i) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return t.shape.Rank() }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.shape.Offset(idx...)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.shape.Offset(idx...)] = v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: t.shape, data: d}
}

// Reshape returns a view of the same data with a new shape of equal size.
func (t *Tensor) Reshape(dims ...int) *Tensor {
	s := NewShape(dims...)
	if s.Elems() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), s, s.Elems()))
	}
	return &Tensor{shape: s, data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Add accumulates o into t elementwise. Shapes must have equal element counts.
func (t *Tensor) Add(o *Tensor) {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Add size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	for i, v := range o.data {
		t.data[i] += v
	}
}

// Sub subtracts o from t elementwise.
func (t *Tensor) Sub(o *Tensor) {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Sub size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// Scale multiplies every element by k.
func (t *Tensor) Scale(k float32) {
	for i := range t.data {
		t.data[i] *= k
	}
}

// AddScaled accumulates k*o into t elementwise. This is the primitive the
// Π1 predictor uses to sum ΔT error tensors onto the baseline output.
func (t *Tensor) AddScaled(k float32, o *Tensor) {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	for i, v := range o.data {
		t.data[i] += float32(k * v)
	}
}

// Diff returns t - o as a fresh tensor with t's shape.
func Diff(t, o *Tensor) *Tensor {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Diff size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	d := make([]float32, len(t.data))
	for i := range d {
		d[i] = t.data[i] - o.data[i]
	}
	return &Tensor{shape: t.shape, data: d}
}

// L1Norm returns the sum of absolute values, the filter-importance measure
// used by filter sampling (Li et al.).
func (t *Tensor) L1Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += math.Abs(float64(v))
	}
	return s
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MSE returns the mean squared error between t and o.
func MSE(t, o *Tensor) float64 {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: MSE size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	if len(t.data) == 0 {
		return 0
	}
	var s float64
	for i := range t.data {
		d := float64(t.data[i]) - float64(o.data[i])
		s += float64(d * d)
	}
	return s / float64(len(t.data))
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(t, o *Tensor) float64 {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Equal reports whether the two tensors have identical shapes and all
// elements within tol of each other.
func Equal(a, b *Tensor, tol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	for i := range a.data {
		if math.Abs(float64(a.data[i])-float64(b.data[i])) > tol {
			return false
		}
	}
	return true
}

// ArgMax returns the flat index of the largest element. For ties the
// lowest index wins, making classification deterministic.
func (t *Tensor) ArgMax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// RowArgMax treats t as an (n, k) matrix and returns the argmax of each row;
// this converts a batched logit tensor into class predictions.
func (t *Tensor) RowArgMax() []int {
	if t.Rank() < 2 {
		return []int{t.ArgMax()}
	}
	n := t.Dim(0)
	k := t.Elems() / n
	out := make([]int, n)
	for r := 0; r < n; r++ {
		row := t.data[r*k : (r+1)*k]
		best, bi := float32(math.Inf(-1)), 0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		out[r] = bi
	}
	return out
}

// Row returns a view (no copy) of row r of an (n, k) tensor.
func (t *Tensor) Row(r int) []float32 {
	n := t.Dim(0)
	k := t.Elems() / n
	_ = n
	return t.data[r*k : (r+1)*k]
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
