package models

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

const lenetSpec = `{
  "name": "lenet_json",
  "input": {"channels": 1, "height": 28, "width": 28},
  "classes": 10,
  "seed": 5,
  "width_mult": 0.25,
  "layers": [
    {"type": "conv", "filters": 32, "kernel": 5, "pad": 2, "activation": "tanh"},
    {"type": "maxpool", "kernel": 2},
    {"type": "conv", "filters": 64, "kernel": 5, "pad": 2, "activation": "tanh"},
    {"type": "maxpool", "kernel": 2},
    {"type": "dense", "units": 256, "activation": "tanh"},
    {"type": "dense", "units": 10},
    {"type": "softmax"}
  ]
}`

func TestFromJSONLeNet(t *testing.T) {
	m, err := FromJSON([]byte(lenetSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Graph.LayerCount(); got != 4 {
		t.Errorf("layers = %d, want 4", got)
	}
	// The compiled model must run and produce valid probabilities.
	g := tensor.NewRNG(1)
	in := tensor.New(2, 1, 28, 28)
	g.FillUniform(in, 0, 1)
	out := m.Graph.Execute(in, nil, graph.ExecOptions{})
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("output shape %v", out.Shape())
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range out.Row(r) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestFromJSONEquivalentToBuilder(t *testing.T) {
	// The JSON path and the direct builder must produce identical graphs
	// (same seed, same structure ⇒ same weights ⇒ same outputs).
	m1, err := FromJSON([]byte(lenetSpec))
	if err != nil {
		t.Fatal(err)
	}
	m2 := LeNet(5, 0.25)
	g := tensor.NewRNG(2)
	in := tensor.New(2, 1, 28, 28)
	g.FillUniform(in, 0, 1)
	o1 := m1.Graph.Execute(in, nil, graph.ExecOptions{})
	o2 := m2.Graph.Execute(in, nil, graph.ExecOptions{})
	if !tensor.Equal(o1, o2, 1e-6) {
		t.Fatal("JSON-compiled LeNet diverges from the builder's LeNet")
	}
}

func TestFromJSONResidual(t *testing.T) {
	spec := `{
	  "name": "resnetish",
	  "input": {"channels": 3, "height": 16, "width": 16},
	  "classes": 10,
	  "seed": 3,
	  "width_mult": 0.25,
	  "layers": [
	    {"type": "conv", "filters": 16, "kernel": 3, "pad": 1, "activation": "relu"},
	    {"type": "residual", "layers": [
	      {"type": "conv", "filters": 16, "kernel": 3, "pad": 1, "activation": "relu"},
	      {"type": "conv", "filters": 16, "kernel": 3, "pad": 1}
	    ]},
	    {"type": "residual", "layers": [
	      {"type": "conv", "filters": 32, "kernel": 3, "stride": 2, "pad": 1, "activation": "relu"},
	      {"type": "conv", "filters": 32, "kernel": 3, "pad": 1}
	    ]},
	    {"type": "global_avg_pool"},
	    {"type": "dense", "units": 10},
	    {"type": "softmax"}
	  ]
	}`
	m, err := FromJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	// First block: identity shortcut (no projection conv); second block:
	// 1×1 projection. Count convs: 1 + 2 + (2+1) = 6, plus 1 dense.
	convs := 0
	for _, n := range m.Graph.Nodes {
		if n.Kind == graph.OpConv {
			convs++
		}
	}
	if convs != 6 {
		t.Errorf("convs = %d, want 6 (projection only on the strided block)", convs)
	}
	in := tensor.New(1, 3, 16, 16)
	tensor.NewRNG(4).FillUniform(in, 0, 1)
	out := m.Graph.Execute(in, nil, graph.ExecOptions{})
	if out.Dim(1) != 10 {
		t.Fatalf("output shape %v", out.Shape())
	}
}

func TestFromJSONDepthwise(t *testing.T) {
	spec := `{
	  "name": "mobile_ish",
	  "input": {"channels": 3, "height": 8, "width": 8},
	  "classes": 10,
	  "seed": 6,
	  "layers": [
	    {"type": "conv", "filters": 8, "kernel": 3, "pad": 1, "activation": "relu6"},
	    {"type": "conv", "filters": 8, "kernel": 3, "pad": 1, "groups": 8, "activation": "relu6"},
	    {"type": "global_avg_pool"},
	    {"type": "dense", "units": 10},
	    {"type": "softmax"}
	  ]
	}`
	m, err := FromJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	// The depthwise conv must have Groups == its input channel count.
	var dw *graph.Node
	for _, n := range m.Graph.Nodes {
		if n.Kind == graph.OpConv && n.Conv.Groups > 1 {
			dw = n
		}
	}
	if dw == nil {
		t.Fatal("no depthwise conv in compiled graph")
	}
	if dw.Weight.Dim(1) != 1 {
		t.Errorf("depthwise weight Ci/G = %d, want 1", dw.Weight.Dim(1))
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"garbage", "not json", "bad model spec"},
		{"no name", `{"input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"softmax"}]}`, "needs a name"},
		{"bad input", `{"name":"x","classes":2,"layers":[{"type":"softmax"}]}`, "bad input shape"},
		{"no classes", `{"name":"x","input":{"channels":1,"height":4,"width":4},"layers":[{"type":"softmax"}]}`, "classes"},
		{"no layers", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2}`, "no layers"},
		{"bad type", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"wat"}]}`, "unknown layer type"},
		{"bad act", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"conv","filters":4,"kernel":3,"activation":"swish"}]}`, "unknown activation"},
		{"conv no kernel", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"conv","filters":4}]}`, "positive filters and kernel"},
		{"empty residual", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"residual"}]}`, "nested layers"},
		{"kernel beyond input", `{"name":"x","input":{"channels":1,"height":2,"width":2},"classes":2,"layers":[{"type":"conv","filters":4,"kernel":5}]}`, "exceeds"},
		{"pool beyond input", `{"name":"x","input":{"channels":1,"height":4,"width":4},"classes":2,"layers":[{"type":"maxpool","kernel":5}]}`, "exceeds"},
		{"negative pad", `{"name":"x","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"conv","filters":4,"kernel":3,"pad":-2}]}`, "negative"},
		{"negative stride", `{"name":"x","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"avgpool","kernel":3,"stride":-2}]}`, "negative"},
		{"negative groups", `{"name":"x","input":{"channels":4,"height":8,"width":8},"classes":2,"layers":[{"type":"conv","filters":6,"kernel":3,"groups":-4}]}`, "negative"},
		{"groups split filters", `{"name":"x","input":{"channels":4,"height":8,"width":8},"classes":2,"layers":[{"type":"conv","filters":6,"kernel":3,"groups":4}]}`, "do not divide"},
		{"conv after flatten", `{"name":"x","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"flatten"},{"type":"conv","filters":3,"kernel":1}]}`, "flattened"},
		{"pool after dense", `{"name":"x","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"dense","units":3},{"type":"global_avg_pool"}]}`, "flattened"},
		{"flat residual", `{"name":"x","input":{"channels":1,"height":8,"width":8},"classes":2,"layers":[{"type":"residual","layers":[{"type":"dense","units":3}]}]}`, "residual branch"},
	}
	for _, c := range cases {
		_, err := FromJSON([]byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestFromJSONDeterministic(t *testing.T) {
	m1, err := FromJSON([]byte(lenetSpec))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FromJSON([]byte(lenetSpec))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 28, 28)
	tensor.NewRNG(9).FillUniform(in, 0, 1)
	o1 := m1.Graph.Execute(in, nil, graph.ExecOptions{})
	o2 := m2.Graph.Execute(in, nil, graph.ExecOptions{})
	if !tensor.Equal(o1, o2, 0) {
		t.Fatal("same spec must compile to identical models")
	}
}
