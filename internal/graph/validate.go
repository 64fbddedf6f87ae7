package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// ValidateDeep runs the full static validation of a graph against a
// program input shape and returns every problem found (empty slice when
// the graph is well formed). It collects all findings so the model
// builders and program-load checks can report a complete picture at once.
// It checks:
//
//   - node IDs matching slice positions and a valid output node;
//   - dangling edges: inputs referencing node IDs outside the graph;
//   - topological order: every input precedes its node, which also rejects
//     every cycle (the builder enforces it, but deserialized or
//     hand-crafted graphs may not);
//   - arity and parameter presence per op kind (weights on conv/matmul,
//     two operands on add/mul, three on nms);
//   - nodes unreachable from the output (dead subgraphs inflate cost
//     tables and search spaces silently);
//   - shape consistency across every dataflow edge, via InferShapes.
func (g *Graph) ValidateDeep(in tensor.Shape) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("graph %q: "+format, append([]any{g.Name}, args...)...))
	}
	if len(g.Nodes) == 0 {
		report("empty")
		return errs
	}
	for i, n := range g.Nodes {
		if n == nil {
			report("node %d is nil", i)
			return errs
		}
		if n.ID != i {
			report("node at position %d has ID %d", i, n.ID)
		}
	}
	if g.Output < 0 || g.Output >= len(g.Nodes) {
		report("output id %d outside [0,%d)", g.Output, len(g.Nodes))
	}

	// Dangling edges and per-kind arity/parameter checks.
	dangling := false
	for _, n := range g.Nodes {
		for _, id := range n.Inputs {
			if id < 0 || id >= len(g.Nodes) {
				report("node %q edge to nonexistent node %d (dangling)", n.Name, id)
				dangling = true
			}
		}
		switch n.Kind {
		case OpInput:
			if n.ID != 0 {
				report("interior input node %d", n.ID)
			}
			if len(n.Inputs) != 0 {
				report("input node has %d inputs", len(n.Inputs))
			}
		case OpConv, OpMatMul:
			if n.Weight == nil {
				report("node %q (%s) lacks weights", n.Name, n.Kind)
			}
			if len(n.Inputs) != 1 {
				report("node %q (%s) has %d inputs, want 1", n.Name, n.Kind, len(n.Inputs))
			}
		case OpAdd, OpMul:
			if len(n.Inputs) != 2 {
				report("node %q (%s) has %d inputs, want 2", n.Name, n.Kind, len(n.Inputs))
			}
		case OpNMS:
			if len(n.Inputs) != 3 {
				report("node %q (nms) has %d inputs, want 3", n.Name, len(n.Inputs))
			}
		default:
			if len(n.Inputs) != 1 {
				report("node %q (%s) has %d inputs, want 1", n.Name, n.Kind, len(n.Inputs))
			}
		}
	}
	if dangling {
		// The reachability walk indexes Nodes by edge target; a dangling
		// edge would panic it, and shape inference is meaningless.
		return errs
	}

	// Topological-ID ordering, which the executor's single forward sweep
	// relies on. Every cycle has an edge with in >= n.ID, so this also
	// rejects cycles.
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in >= n.ID {
				report("node %q input %d breaks topological order", n.Name, in)
			}
		}
	}

	// Reachability from the output.
	if g.Output >= 0 && g.Output < len(g.Nodes) {
		reach := make([]bool, len(g.Nodes))
		var mark func(id int)
		mark = func(id int) {
			if reach[id] {
				return
			}
			reach[id] = true
			for _, in := range g.Nodes[id].Inputs {
				mark(in)
			}
		}
		mark(g.Output)
		for _, n := range g.Nodes {
			if !reach[n.ID] {
				report("node %q (id %d) is unreachable from output %d", n.Name, n.ID, g.Output)
			}
		}
	}

	// Shape consistency across every edge. InferShapes itself reports
	// mismatches (conv rank, matmul inner dim, add/mul operand sizes) but
	// stops at the first; run node-by-node to collect them all.
	if len(errs) == 0 {
		shapes := make([]tensor.Shape, len(g.Nodes))
		for _, n := range g.Nodes {
			s, err := g.inferNode(n, shapes, in)
			if err != nil {
				errs = append(errs, err)
				return errs // downstream shapes depend on this one
			}
			shapes[n.ID] = s
		}
	}
	return errs
}
