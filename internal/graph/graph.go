// Package graph implements the ApproxHPVM-style intermediate
// representation the paper compiles tensor programs into: a dataflow graph
// of predefined tensor operations (convolution, matrix multiplication,
// activations, pooling, normalization, softmax, reductions). Nodes are the
// units of scheduling and approximation — a configuration assigns one
// approximation knob to each approximable node, and the execution engine
// applies the corresponding approximate kernel from internal/tensorops
// (or offloads to the PROMISE simulator for hardware knobs).
package graph

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// OpKind identifies the tensor operation a node performs.
type OpKind int

const (
	OpInput OpKind = iota
	OpConv
	OpMatMul
	OpReLU
	OpClippedReLU
	OpTanh
	OpMaxPool
	OpAvgPool
	OpBatchNorm
	OpSoftmax
	OpAdd
	OpReduce
	OpFlatten
	OpAbs
	OpSqrt
	OpMul
	OpNMS
	OpHysteresis
)

var opNames = map[OpKind]string{
	OpInput: "input", OpConv: "conv", OpMatMul: "matmul", OpReLU: "relu",
	OpClippedReLU: "relu_clip", OpTanh: "tanh", OpMaxPool: "maxpool",
	OpAvgPool: "avgpool", OpBatchNorm: "batchnorm", OpSoftmax: "softmax",
	OpAdd: "add", OpReduce: "reduce", OpFlatten: "flatten",
	OpAbs: "abs", OpSqrt: "sqrt", OpMul: "mul", OpNMS: "nms",
	OpHysteresis: "hysteresis",
}

func (k OpKind) String() string { return opNames[k] }

// Class maps an operation kind to the knob class that applies to it.
func (k OpKind) Class() approx.OpClass {
	switch k {
	case OpConv:
		return approx.OpConv
	case OpMatMul:
		return approx.OpMatMul
	case OpMaxPool, OpAvgPool, OpReduce:
		return approx.OpReduce
	default:
		return approx.OpOther
	}
}

// Activation is an activation fused into a convolution or dense node.
// ApproxHPVM counts conv+bias+activation as one tensor operation, which
// keeps this IR's op counts aligned with the paper's Table 1 (e.g.
// ResNet-18 has 22 tensor operations).
type Activation int

const (
	ActNone Activation = iota
	ActReLU
	ActClippedReLU
	ActTanh
)

// Node is one tensor operation in the dataflow graph.
type Node struct {
	ID     int
	Kind   OpKind
	Name   string
	Inputs []int // producer node IDs, in operand order

	// Operation parameters; which fields are meaningful depends on Kind.
	Weight *tensor.Tensor // conv filter (Co,Ci/G,Kh,Kw) or matmul weight (K,M)
	Bias   *tensor.Tensor // optional fused bias (per output channel)
	Act    Activation     // fused activation for conv/matmul
	Conv   tensorops.ConvParams
	Pool   tensorops.PoolParams
	BN     tensorops.BatchNormParams
	Clip   float32
	Reduce tensorops.ReduceKind
	// Hysteresis thresholds.
	ThreshLo, ThreshHi float32
}

// Approximable reports whether the node accepts non-trivial knobs
// (convolutions, matmuls, reductions/pools) as opposed to just the
// precision choice.
func (n *Node) Approximable() bool {
	return n.Kind.Class() != approx.OpOther
}

// Graph is a dataflow DAG of tensor operations. Nodes are stored in
// topological order (the builder only lets a node consume already-created
// nodes), so execution is a single forward sweep.
type Graph struct {
	Name   string
	Nodes  []*Node
	Output int // ID of the node whose value is the program output
	input  int
}

// New returns an empty graph with a single input placeholder node.
func New(name string) *Graph {
	g := &Graph{Name: name}
	in := &Node{ID: 0, Kind: OpInput, Name: "input"}
	g.Nodes = append(g.Nodes, in)
	g.input = 0
	return g
}

// InputID returns the placeholder node fed by the program input.
func (g *Graph) InputID() int { return g.input }

func (g *Graph) add(n *Node) int {
	n.ID = len(g.Nodes)
	for _, in := range n.Inputs {
		if in < 0 || in >= n.ID {
			panic(fmt.Sprintf("graph: node %q consumes out-of-order input %d", n.Name, in))
		}
	}
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s_%d", n.Kind, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	g.Output = n.ID
	return n.ID
}

// Conv appends a convolution (with optional fused bias; pass nil to omit).
func (g *Graph) Conv(x int, w, b *tensor.Tensor, p tensorops.ConvParams, name string) int {
	return g.add(&Node{Kind: OpConv, Name: name, Inputs: []int{x}, Weight: w, Bias: b, Conv: p.Norm()})
}

// ConvAct appends a convolution with a fused activation.
func (g *Graph) ConvAct(x int, w, b *tensor.Tensor, p tensorops.ConvParams, act Activation, clip float32, name string) int {
	return g.add(&Node{Kind: OpConv, Name: name, Inputs: []int{x}, Weight: w, Bias: b, Conv: p.Norm(), Act: act, Clip: clip})
}

// MatMul appends a dense layer (with optional fused bias).
func (g *Graph) MatMul(x int, w, b *tensor.Tensor, name string) int {
	return g.add(&Node{Kind: OpMatMul, Name: name, Inputs: []int{x}, Weight: w, Bias: b})
}

// MatMulAct appends a dense layer with a fused activation.
func (g *Graph) MatMulAct(x int, w, b *tensor.Tensor, act Activation, clip float32, name string) int {
	return g.add(&Node{Kind: OpMatMul, Name: name, Inputs: []int{x}, Weight: w, Bias: b, Act: act, Clip: clip})
}

// ReLU appends a rectified linear activation.
func (g *Graph) ReLU(x int) int {
	return g.add(&Node{Kind: OpReLU, Inputs: []int{x}})
}

// ClippedReLU appends min(max(0,x),clip).
func (g *Graph) ClippedReLU(x int, clip float32) int {
	return g.add(&Node{Kind: OpClippedReLU, Inputs: []int{x}, Clip: clip})
}

// Tanh appends a tanh activation.
func (g *Graph) Tanh(x int) int {
	return g.add(&Node{Kind: OpTanh, Inputs: []int{x}})
}

// MaxPool appends max pooling.
func (g *Graph) MaxPool(x int, p tensorops.PoolParams) int {
	return g.add(&Node{Kind: OpMaxPool, Inputs: []int{x}, Pool: p.Norm()})
}

// AvgPool appends average pooling.
func (g *Graph) AvgPool(x int, p tensorops.PoolParams) int {
	return g.add(&Node{Kind: OpAvgPool, Inputs: []int{x}, Pool: p.Norm()})
}

// BatchNorm appends inference-time batch normalization.
func (g *Graph) BatchNorm(x int, bp tensorops.BatchNormParams) int {
	return g.add(&Node{Kind: OpBatchNorm, Inputs: []int{x}, BN: bp})
}

// Softmax appends a softmax over (N,K) logits.
func (g *Graph) Softmax(x int) int {
	return g.add(&Node{Kind: OpSoftmax, Inputs: []int{x}})
}

// Add appends an elementwise sum (residual connection).
func (g *Graph) Add(a, b int) int {
	return g.add(&Node{Kind: OpAdd, Inputs: []int{a, b}})
}

// GlobalAvgPool appends a mean reduction over spatial dims: (N,C,H,W)→(N,C).
func (g *Graph) GlobalAvgPool(x int) int {
	return g.add(&Node{Kind: OpReduce, Inputs: []int{x}, Reduce: tensorops.ReduceMean})
}

// Flatten appends a (N,...)→(N,K) reshape.
func (g *Graph) Flatten(x int) int {
	return g.add(&Node{Kind: OpFlatten, Inputs: []int{x}})
}

// Abs appends an elementwise absolute value (a map op).
func (g *Graph) Abs(x int) int {
	return g.add(&Node{Kind: OpAbs, Inputs: []int{x}})
}

// Sqrt appends an elementwise square root (a map op).
func (g *Graph) Sqrt(x int) int {
	return g.add(&Node{Kind: OpSqrt, Inputs: []int{x}})
}

// Mul appends an elementwise product of two tensors (a map op).
func (g *Graph) Mul(a, b int) int {
	return g.add(&Node{Kind: OpMul, Inputs: []int{a, b}})
}

// NMS appends Canny non-maximum suppression over (magnitude, gx, gy).
func (g *Graph) NMS(mag, gx, gy int) int {
	return g.add(&Node{Kind: OpNMS, Inputs: []int{mag, gx, gy}})
}

// Hysteresis appends Canny double-threshold edge linking with the given
// low and high thresholds.
func (g *Graph) Hysteresis(x int, lo, hi float32) int {
	return g.add(&Node{Kind: OpHysteresis, Inputs: []int{x}, ThreshLo: lo, ThreshHi: hi})
}

// ApproxOps returns the IDs of nodes eligible for non-trivial
// approximation knobs, in topological order. These IDs are the domain of
// a Config.
func (g *Graph) ApproxOps() []int {
	var ids []int
	for _, n := range g.Nodes {
		if n.Approximable() {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// OpClasses returns the knob class of each approximable op, aligned with
// ApproxOps; it feeds the search-space computation of Table 1.
func (g *Graph) OpClasses() []approx.OpClass {
	var cs []approx.OpClass
	for _, n := range g.Nodes {
		if n.Approximable() {
			cs = append(cs, n.Kind.Class())
		}
	}
	return cs
}

// LayerCount counts the "layers" of Table 1: convolutions and dense
// layers.
func (g *Graph) LayerCount() int {
	c := 0
	for _, n := range g.Nodes {
		if n.Kind == OpConv || n.Kind == OpMatMul {
			c++
		}
	}
	return c
}
