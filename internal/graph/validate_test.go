package graph

import (
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// hasErr reports whether any collected error message contains substr.
func hasErr(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

func TestValidateDeepCleanGraph(t *testing.T) {
	gr := tinyNet(tensor.NewRNG(1))
	if errs := gr.ValidateDeep(tensor.NewShape(2, 1, 8, 8)); len(errs) != 0 {
		t.Fatalf("clean graph reported %d errors: %v", len(errs), errs)
	}
}

func TestValidateDeepDanglingEdge(t *testing.T) {
	gr := New("dangling")
	gr.ReLU(gr.InputID())
	// Corrupt the edge list to point past the graph.
	gr.Nodes[1].Inputs[0] = 7
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "dangling") {
		t.Fatalf("dangling edge not reported: %v", errs)
	}
}

func TestValidateDeepCycle(t *testing.T) {
	gr := New("cyclic")
	a := gr.ReLU(gr.InputID())
	b := gr.Tanh(a)
	// Introduce a back edge a ← b: the cycle a → b → a must take an edge
	// against ID order.
	gr.Nodes[a].Inputs[0] = b
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "breaks topological order") {
		t.Fatalf("cycle not reported: %v", errs)
	}
}

func TestValidateDeepShapeMismatch(t *testing.T) {
	gr := New("shapes")
	fl := gr.Flatten(gr.InputID())
	// Weight inner dimension 99 disagrees with the flattened input (16).
	w := tensor.New(99, 10)
	gr.MatMul(fl, w, nil, "fc")
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "inner dim") {
		t.Fatalf("shape mismatch not reported: %v", errs)
	}
}

func TestValidateDeepConvChannelMismatch(t *testing.T) {
	gr := New("channels")
	// The filter reads 2 input channels; the program input has 3.
	gr.Conv(gr.InputID(), tensor.New(4, 2, 3, 3), nil, tensorops.ConvParams{PadH: 1, PadW: 1}, "conv")
	errs := gr.ValidateDeep(tensor.NewShape(1, 3, 8, 8))
	if !hasErr(errs, "input channels 3") {
		t.Fatalf("channel mismatch not reported: %v", errs)
	}
}

func TestValidateDeepOperandSizeMismatch(t *testing.T) {
	gr := New("addmismatch")
	a := gr.ReLU(gr.InputID())
	b := gr.MaxPool(gr.InputID(), tensorops.PoolParams{KH: 2, KW: 2})
	gr.Add(a, b) // different element counts after pooling
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "operand sizes") {
		t.Fatalf("add operand mismatch not reported: %v", errs)
	}
}

func TestValidateDeepUnreachableNode(t *testing.T) {
	gr := New("dead")
	a := gr.ReLU(gr.InputID())
	gr.Tanh(gr.InputID()) // dead branch
	gr.Output = a
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "unreachable") {
		t.Fatalf("unreachable node not reported: %v", errs)
	}
}

func TestValidateDeepMissingWeights(t *testing.T) {
	gr := New("noweights")
	gr.Nodes = append(gr.Nodes, &Node{ID: 1, Kind: OpConv, Name: "conv", Inputs: []int{0}})
	gr.Output = 1
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if !hasErr(errs, "lacks weights") {
		t.Fatalf("missing weights not reported: %v", errs)
	}
}

func TestValidateDeepCollectsMultiple(t *testing.T) {
	gr := New("multi")
	gr.Nodes = append(gr.Nodes,
		&Node{ID: 1, Kind: OpConv, Name: "c", Inputs: []int{0}}, // no weights
		&Node{ID: 2, Kind: OpAdd, Name: "a", Inputs: []int{1}},  // arity 1, want 2
	)
	gr.Output = 2
	errs := gr.ValidateDeep(tensor.NewShape(1, 1, 4, 4))
	if len(errs) < 2 {
		t.Fatalf("expected multiple collected errors, got %v", errs)
	}
}
