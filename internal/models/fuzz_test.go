package models

import (
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

// FuzzModelFromJSON checks the model compiler on untrusted specs:
// FromJSON either rejects a spec with an error (one over maxSpecBytes
// among them), or returns a graph that ValidateDeep accepts and that
// executes one image without panicking.
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
