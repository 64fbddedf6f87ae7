package models

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The JSON frontend: the paper ingests CNNs written in Keras or PyTorch;
// this reproduction accepts an equivalent declarative JSON description
// and compiles it to the dataflow-graph IR with synthetic (seeded,
// smoothed, standardized) weights. Example:
//
//	{
//	  "name": "mynet",
//	  "input": {"channels": 3, "height": 32, "width": 32},
//	  "classes": 10,
//	  "seed": 7,
//	  "layers": [
//	    {"type": "conv", "filters": 32, "kernel": 3, "pad": 1, "activation": "relu"},
//	    {"type": "maxpool", "kernel": 2},
//	    {"type": "residual", "stride": 2, "filters": 64,
//	     "layers": [
//	       {"type": "conv", "filters": 64, "kernel": 3, "stride": 2, "pad": 1, "activation": "relu"},
//	       {"type": "conv", "filters": 64, "kernel": 3, "pad": 1}
//	     ]},
//	    {"type": "global_avg_pool"},
//	    {"type": "dense", "units": 10},
//	    {"type": "softmax"}
//	  ]
//	}

// ModelSpec is the top-level JSON model description.
type ModelSpec struct {
	Name    string    `json:"name"`
	Input   InputSpec `json:"input"`
	Classes int       `json:"classes"`
	Seed    int64     `json:"seed"`
	// WidthMult scales every filter/unit count (default 1).
	WidthMult float64     `json:"width_mult"`
	Layers    []LayerSpec `json:"layers"`
}

// InputSpec describes the per-image input shape.
type InputSpec struct {
	Channels int `json:"channels"`
	Height   int `json:"height"`
	Width    int `json:"width"`
}

// LayerSpec is one layer. Which fields apply depends on Type:
// conv (filters, kernel, stride, pad, groups, activation),
// dense (units, activation), maxpool/avgpool (kernel, stride),
// global_avg_pool, flatten, softmax,
// residual (layers — the main branch; stride/filters size the projection
// shortcut when the branch changes geometry).
type LayerSpec struct {
	Type       string      `json:"type"`
	Filters    int         `json:"filters,omitempty"`
	Units      int         `json:"units,omitempty"`
	Kernel     int         `json:"kernel,omitempty"`
	Stride     int         `json:"stride,omitempty"`
	Pad        int         `json:"pad,omitempty"`
	Groups     int         `json:"groups,omitempty"`
	Activation string      `json:"activation,omitempty"`
	Layers     []LayerSpec `json:"layers,omitempty"`
}

func parseActivation(s string) (graph.Activation, error) {
	switch s {
	case "", "none":
		return graph.ActNone, nil
	case "relu":
		return graph.ActReLU, nil
	case "relu6", "clipped_relu":
		return graph.ActClippedReLU, nil
	case "tanh":
		return graph.ActTanh, nil
	default:
		return graph.ActNone, fmt.Errorf("models: unknown activation %q", s)
	}
}

// FromJSON compiles a JSON model description into a Model with synthetic
// weights, ready for tuning.
func FromJSON(data []byte) (*Model, error) {
	var spec ModelSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("models: bad model spec: %w", err)
	}
	return FromSpec(spec)
}

// FromSpec compiles a parsed model description.
func FromSpec(spec ModelSpec) (*Model, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("models: spec needs a name")
	}
	in := spec.Input
	if in.Channels <= 0 || in.Height <= 0 || in.Width <= 0 {
		return nil, fmt.Errorf("models: bad input shape %+v", in)
	}
	if spec.Classes <= 0 {
		return nil, fmt.Errorf("models: classes must be positive")
	}
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("models: spec has no layers")
	}
	width := spec.WidthMult
	if width == 0 {
		width = 1
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	b := newBuilder(spec.Name, tensor.NewRNG(seed), in.Channels, in.Height, in.Width, width)
	if err := buildLayers(b, spec.Layers); err != nil {
		return nil, err
	}
	if errs := b.g.ValidateDeep(tensor.NewShape(1, in.Channels, in.Height, in.Width)); len(errs) > 0 {
		return nil, fmt.Errorf("models: compiled graph is invalid: %w", errors.Join(errs...))
	}
	return b.finish(in.Channels, in.Height, in.Width, spec.Classes), nil
}

// spatialLayers are the layer types that need an (N,C,H,W) activation.
var spatialLayers = map[string]bool{"conv": true, "maxpool": true, "avgpool": true, "global_avg_pool": true, "residual": true}

// flat reports whether the builder's current activation is (N,K): the
// output of a flatten, a dense layer, a global pool or a softmax.
func (b *builder) flat() bool {
	switch b.g.Nodes[b.last].Kind {
	case graph.OpFlatten, graph.OpMatMul, graph.OpReduce, graph.OpSoftmax:
		return true
	}
	return false
}

func buildLayers(b *builder, layers []LayerSpec) error {
	for i, l := range layers {
		if err := buildLayer(b, l); err != nil {
			return fmt.Errorf("layer %d (%s): %w", i, l.Type, err)
		}
	}
	return nil
}

func buildLayer(b *builder, l LayerSpec) error {
	if spatialLayers[l.Type] && b.flat() {
		return fmt.Errorf("%s needs an (N,C,H,W) input, but an earlier layer flattened it", l.Type)
	}
	if l.Stride < 0 || l.Pad < 0 || l.Groups < 0 {
		return fmt.Errorf("negative stride, pad or groups")
	}
	switch l.Type {
	case "conv":
		if l.Filters <= 0 || l.Kernel <= 0 {
			return fmt.Errorf("conv needs positive filters and kernel")
		}
		if l.Kernel > b.h+2*l.Pad || l.Kernel > b.w+2*l.Pad {
			return fmt.Errorf("kernel %d exceeds the %dx%d input padded by %d", l.Kernel, b.h, b.w, l.Pad)
		}
		act, err := parseActivation(l.Activation)
		if err != nil {
			return err
		}
		stride := l.Stride
		if stride == 0 {
			stride = 1
		}
		groups := l.Groups
		if groups == 0 {
			groups = 1
		}
		out := b.ch(l.Filters)
		if groups > 1 {
			// Grouped/depthwise convolutions need channel counts divisible
			// by the group count; depthwise uses groups == input channels.
			if l.Groups == l.Filters {
				groups = b.c // depthwise after width scaling
				out = b.c
			} else if b.c%groups != 0 || out%groups != 0 {
				return fmt.Errorf("groups %d do not divide channels %d→%d", groups, b.c, out)
			}
		}
		b.convFrom(b.last, out, l.Kernel, stride, l.Pad, act, groups)
	case "dense":
		if l.Units <= 0 {
			return fmt.Errorf("dense needs positive units")
		}
		act, err := parseActivation(l.Activation)
		if err != nil {
			return err
		}
		units := l.Units
		if l.Units > 16 { // class heads stay unscaled
			units = b.ch(l.Units)
		}
		b.fc(units, act)
	case "maxpool", "avgpool":
		if l.Kernel <= 0 {
			return fmt.Errorf("%s needs a positive kernel", l.Type)
		}
		if l.Kernel > b.h || l.Kernel > b.w {
			return fmt.Errorf("%s kernel %d exceeds the %dx%d input", l.Type, l.Kernel, b.h, b.w)
		}
		stride := l.Stride
		if stride == 0 {
			stride = l.Kernel
		}
		if l.Type == "maxpool" {
			b.maxPool(l.Kernel, stride)
		} else {
			b.avgPool(l.Kernel, stride)
		}
	case "global_avg_pool":
		b.globalAvgPool()
	case "flatten":
		b.last = b.g.Flatten(b.last)
		b.c, b.h, b.w = b.c*b.h*b.w, 1, 1
	case "softmax":
		b.softmax()
	case "residual":
		if len(l.Layers) == 0 {
			return fmt.Errorf("residual needs nested layers")
		}
		inID, inC, inH, inW := b.last, b.c, b.h, b.w
		if err := buildLayers(b, l.Layers); err != nil {
			return err
		}
		if b.flat() {
			return fmt.Errorf("residual branch must end in an (N,C,H,W) activation")
		}
		mainID, outC, outH, outW := b.last, b.c, b.h, b.w
		short := inID
		if inC != outC || inH != outH || inW != outW {
			// 1×1 projection shortcut matching the branch's geometry.
			strideH := inH / outH
			if strideH < 1 {
				return fmt.Errorf("residual branch enlarges spatial dims")
			}
			b.last, b.c, b.h, b.w = inID, inC, inH, inW
			short = b.convFrom(inID, outC, 1, strideH, 0, graph.ActNone, 1)
			if b.h != outH || b.w != outW {
				return fmt.Errorf("projection mismatch: %dx%d vs %dx%d", b.h, b.w, outH, outW)
			}
		}
		b.last = b.g.Add(mainID, short)
		b.last = b.g.ReLU(b.last)
		b.c, b.h, b.w = outC, outH, outW
	default:
		return fmt.Errorf("unknown layer type %q", l.Type)
	}
	return nil
}
