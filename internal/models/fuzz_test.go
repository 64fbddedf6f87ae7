package models

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// tinyVGGSpec is the spec examples/model_from_json compiles.
const tinyVGGSpec = `{
  "name": "tiny_vgg",
  "input": {"channels": 3, "height": 32, "width": 32},
  "classes": 10,
  "seed": 21,
  "width_mult": 0.25,
  "layers": [
    {"type": "conv", "filters": 64, "kernel": 3, "pad": 1, "activation": "relu"},
    {"type": "conv", "filters": 64, "kernel": 3, "pad": 1, "activation": "relu"},
    {"type": "maxpool", "kernel": 2},
    {"type": "conv", "filters": 128, "kernel": 3, "pad": 1, "activation": "relu"},
    {"type": "maxpool", "kernel": 2},
    {"type": "global_avg_pool"},
    {"type": "dense", "units": 10},
    {"type": "softmax"}
  ]
}`

// fuzzSpecFits bounds the specs FuzzModelFromJSON compiles, so that the
// synthetic weights and activations of any accepted spec stay within a
// few tens of MB. Negative sizes stay in range: rejecting them is the
// compiler's job.
func fuzzSpecFits(spec ModelSpec) bool {
	in := spec.Input
	if in.Channels > 4 || in.Height > 32 || in.Width > 32 || spec.Classes > 16 ||
		math.IsNaN(spec.WidthMult) || math.Abs(spec.WidthMult) > 1 {
		return false
	}
	layers := 0
	var fits func([]LayerSpec) bool
	fits = func(ls []LayerSpec) bool {
		for _, l := range ls {
			layers++
			small := func(v, limit int) bool { return v >= -limit && v <= limit }
			if layers > 10 || !small(l.Filters, 128) || !small(l.Units, 64) || !small(l.Kernel, 5) ||
				!small(l.Stride, 3) || !small(l.Pad, 2) || !small(l.Groups, 128) || !fits(l.Layers) {
				return false
			}
		}
		return true
	}
	return fits(spec.Layers)
}

// FuzzModelFromJSON checks the model compiler on untrusted specs:
// FromJSON either rejects a spec with an error, or returns a graph that
// ValidateDeep accepts and that executes one image without panicking.
func FuzzModelFromJSON(f *testing.F) {
	f.Add([]byte(tinyVGGSpec))
	f.Add([]byte(`{"name": "res", "input": {"channels": 3, "height": 16, "width": 16}, "classes": 4, "seed": 7,
  "layers": [
    {"type": "conv", "filters": 16, "kernel": 3, "pad": 1, "activation": "relu"},
    {"type": "residual", "stride": 2, "filters": 32, "layers": [
      {"type": "conv", "filters": 32, "kernel": 3, "stride": 2, "pad": 1, "activation": "relu6"},
      {"type": "conv", "filters": 32, "kernel": 3, "pad": 1, "groups": 32}]},
    {"type": "avgpool", "kernel": 2},
    {"type": "flatten"},
    {"type": "dense", "units": 4, "activation": "tanh"},
    {"type": "softmax"}]}`))
	f.Add([]byte(`{"name":"k","input":{"channels":1,"height":2,"width":2},"classes":2,"layers":[{"type":"conv","filters":4,"kernel":5}]}`))
	f.Add([]byte(`{"name":"g","input":{"channels":4,"height":8,"width":8},"classes":2,"layers":[{"type":"conv","filters":6,"kernel":3,"groups":4}]}`))
	f.Add([]byte(`{"name":"f","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"flatten"},{"type":"conv","filters":3,"kernel":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ModelSpec
		if json.Unmarshal(data, &spec) == nil && !fuzzSpecFits(spec) {
			t.Skip("spec too large to compile in a fuzz iteration")
		}
		m, err := FromJSON(data)
		if err != nil {
			return
		}
		if errs := m.Graph.ValidateDeep(m.InputShape(1)); len(errs) > 0 {
			t.Fatalf("compiled graph fails validation: %v", errs)
		}
		out := m.Graph.Execute(tensor.New(1, m.C, m.H, m.W), nil, graph.ExecOptions{})
		if out.Dim(0) != 1 {
			t.Fatalf("one image in, output shape %v", out.Shape())
		}
	})
}
