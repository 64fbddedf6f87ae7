package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// NodeCost holds the analytically computed baseline operation counts of
// one node (§3.4 of the paper): Nc compute operations and Nm memory
// operations (element loads/stores). Approximation knobs divide these by
// their reduction factors Rc and Rm.
type NodeCost struct {
	ID     int
	Nc, Nm float64
}

// InferShapes propagates the shape of the program input through the graph,
// returning the output shape of each node. It performs no tensor
// computation.
func (g *Graph) InferShapes(in tensor.Shape) ([]tensor.Shape, error) {
	shapes := make([]tensor.Shape, len(g.Nodes))
	for _, n := range g.Nodes {
		var err error
		shapes[n.ID], err = g.inferNode(n, shapes, in)
		if err != nil {
			return nil, err
		}
	}
	return shapes, nil
}

func (g *Graph) inferNode(n *Node, shapes []tensor.Shape, in tensor.Shape) (tensor.Shape, error) {
	shapeOf := func(id int) tensor.Shape { return shapes[id] }
	switch n.Kind {
	case OpInput:
		return in, nil
	case OpConv:
		x := shapeOf(n.Inputs[0])
		if x.Rank() != 4 {
			return tensor.Shape{}, fmt.Errorf("graph %q: conv %q input rank %d", g.Name, n.Name, x.Rank())
		}
		p := n.Conv.Norm()
		if x.Dim(1) != n.Weight.Dim(1)*p.Groups {
			return tensor.Shape{}, fmt.Errorf("graph %q: conv %q input channels %d vs weight %v in %d group(s)", g.Name, n.Name, x.Dim(1), n.Weight.Shape(), p.Groups)
		}
		ho := tensor.ConvOutDim(x.Dim(2), n.Weight.Dim(2), p.StrideH, p.PadH)
		wo := tensor.ConvOutDim(x.Dim(3), n.Weight.Dim(3), p.StrideW, p.PadW)
		return tensor.NewShape(x.Dim(0), n.Weight.Dim(0), ho, wo), nil
	case OpMatMul:
		x := shapeOf(n.Inputs[0])
		nBatch := x.Dim(0)
		k := x.Elems() / nBatch
		if n.Weight.Dim(0) != k {
			return tensor.Shape{}, fmt.Errorf("graph %q: matmul %q inner dim %d vs weight %v", g.Name, n.Name, k, n.Weight.Shape())
		}
		return tensor.NewShape(nBatch, n.Weight.Dim(1)), nil
	case OpMaxPool, OpAvgPool:
		x := shapeOf(n.Inputs[0])
		p := n.Pool.Norm()
		ho := tensor.ConvOutDim(x.Dim(2), p.KH, p.StrideH, p.PadH)
		wo := tensor.ConvOutDim(x.Dim(3), p.KW, p.StrideW, p.PadW)
		return tensor.NewShape(x.Dim(0), x.Dim(1), ho, wo), nil
	case OpReduce:
		x := shapeOf(n.Inputs[0])
		return tensor.NewShape(x.Dim(0), x.Dim(1)), nil
	case OpSoftmax, OpFlatten:
		x := shapeOf(n.Inputs[0])
		return tensor.NewShape(x.Dim(0), x.Elems()/x.Dim(0)), nil
	case OpAdd, OpMul:
		a, b := shapeOf(n.Inputs[0]), shapeOf(n.Inputs[1])
		if a.Elems() != b.Elems() {
			return tensor.Shape{}, fmt.Errorf("graph %q: %s %q operand sizes %d vs %d", g.Name, n.Kind, n.Name, a.Elems(), b.Elems())
		}
		return a, nil
	default: // activations, batchnorm: shape-preserving
		return shapeOf(n.Inputs[0]), nil
	}
}

// Costs returns the baseline (un-approximated) compute and memory
// operation counts for every node, given the program input shape. This is
// the closed-form calculation of §3.4 — "computed analytically for each
// tensor op ... using input tensor sizes, weight tensor sizes, strides,
// padding, etc."
func (g *Graph) Costs(in tensor.Shape) ([]NodeCost, error) {
	shapes, err := g.InferShapes(in)
	if err != nil {
		return nil, err
	}
	costs := make([]NodeCost, len(g.Nodes))
	for _, n := range g.Nodes {
		out := shapes[n.ID]
		var inElems float64
		if len(n.Inputs) > 0 {
			inElems = float64(shapes[n.Inputs[0]].Elems())
		}
		outElems := float64(out.Elems())
		c := NodeCost{ID: n.ID}
		switch n.Kind {
		case OpInput, OpFlatten:
			// free
		case OpConv:
			p := n.Conv.Norm()
			cig := n.Weight.Dim(1)
			kh, kw := n.Weight.Dim(2), n.Weight.Dim(3)
			_ = p
			macs := float64(outElems * float64(cig*kh*kw))
			c.Nc = 2 * macs
			c.Nm = inElems + float64(n.Weight.Elems()) + outElems
			if n.Bias != nil {
				c.Nc += outElems
				c.Nm += float64(n.Bias.Elems()) + outElems
			}
			if n.Act != ActNone {
				c.Nc += outElems
			}
		case OpMatMul:
			k := float64(n.Weight.Dim(0))
			c.Nc = float64(2 * outElems * k)
			c.Nm = inElems + float64(n.Weight.Elems()) + outElems
			if n.Bias != nil {
				c.Nc += outElems
				c.Nm += float64(n.Bias.Elems()) + outElems
			}
			if n.Act != ActNone {
				c.Nc += outElems
			}
		case OpMaxPool, OpAvgPool:
			pp := n.Pool.Norm()
			c.Nc = outElems * float64(pp.KH*pp.KW)
			c.Nm = inElems + outElems
		case OpReduce:
			c.Nc = inElems
			c.Nm = inElems + outElems
		case OpReLU, OpClippedReLU:
			c.Nc = outElems
			c.Nm = 2 * outElems
		case OpTanh:
			c.Nc = 8 * outElems // transcendental
			c.Nm = 2 * outElems
		case OpBatchNorm:
			c.Nc = 2 * outElems
			c.Nm = 2 * outElems
		case OpSoftmax:
			c.Nc = 5 * outElems
			c.Nm = 2 * outElems
		case OpAdd, OpMul:
			c.Nc = outElems
			c.Nm = 3 * outElems
		case OpAbs:
			c.Nc = outElems
			c.Nm = 2 * outElems
		case OpSqrt:
			c.Nc = 4 * outElems
			c.Nm = 2 * outElems
		case OpNMS:
			c.Nc = 12 * outElems // direction quantization + comparisons
			c.Nm = 5 * outElems  // mag + gx + gy + neighbor reads + store
		case OpHysteresis:
			c.Nc = 10 * outElems
			c.Nm = 3 * outElems
		}
		costs[n.ID] = c
	}
	return costs, nil
}

// TotalMACs returns the multiply-accumulate count of the convolution and
// dense nodes under a configuration's sampling/perforation knobs — the
// metric of the §8 pruning study.
func (g *Graph) TotalMACs(in tensor.Shape, rcOf func(op int) float64) (float64, error) {
	costs, err := g.Costs(in)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, n := range g.Nodes {
		if n.Kind != OpConv && n.Kind != OpMatMul {
			continue
		}
		rc := 1.0
		if rcOf != nil {
			rc = rcOf(n.ID)
		}
		total += costs[n.ID].Nc / 2 / rc
	}
	return total, nil
}
