package tensorops_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// settledPackBytes collects garbage until the derived operands earlier tests
// left behind are accounted for and tensorops.pack_cache.bytes stops moving
// (a sampled filter's own operands take one cycle more than the filter).
func settledPackBytes() float64 {
	g := obs.Default.Gauge("tensorops.pack_cache.bytes")
	prev := g.Value()
	for i, stable := 0, 0; stable < 3 && i < 50; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond) // the finalizer goroutine
		v := g.Value()
		if stable++; v != prev {
			stable = 0
		}
		prev = v
	}
	return prev
}

// TestInvalidatePackedFreesSampledFilterFP16: an FP16 filter-sampled
// convolution keeps the compacted filter, that filter's FP16 copy and the
// knob's lowering; invalidating the weight must give back all of them at
// once.
func TestInvalidatePackedFreesSampledFilterFP16(t *testing.T) {
	g := tensor.NewRNG(61)
	x := tensor.New(2, 4, 9, 9)
	w := tensor.New(8, 4, 3, 3).MarkCacheable()
	g.FillNormal(x, 0, 1)
	g.FillNormal(w, 0, 1)
	start := settledPackBytes()
	p := tensorops.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	tensorops.Conv2DFilterSamplingFused(x, w, p, 2, 0, tensorops.FP16, tensorops.Epilogue{})
	gauge := obs.Default.Gauge("tensorops.pack_cache.bytes")
	if held := gauge.Value() - start; held <= float64(2*4*w.Elems()/2) {
		t.Fatalf("the convolution kept %v bytes, want the half-size filter and its FP16 copy (%d) and a lowering", held, 4*w.Elems())
	}
	tensorops.InvalidatePacked(w)
	if left := gauge.Value() - start; left != 0 {
		t.Fatalf("%v bytes still held after InvalidatePacked(w)", left)
	}
}

// TestDerivedOperandsDieWithTheirModel: a prepacked zoo model that has run
// its FP16 and filter-sampling paths and is then dropped gives back every
// derived byte to the collector — nobody calls InvalidatePacked.
func TestDerivedOperandsDieWithTheirModel(t *testing.T) {
	start := settledPackBytes()
	func() {
		m := models.LeNet(1, 0.5)
		if m.Graph.PrepackWeights() == 0 {
			t.Fatal("nothing prepacked")
		}
		in := tensor.New(m.InputShape(2).Dims()...)
		tensor.NewRNG(2).FillNormal(in, 0, 1)
		for _, n := range m.Graph.Nodes {
			if n.Weight != nil && n.Weight.Rank() == 4 {
				tensorops.Conv2DFilterSamplingFused(in, n.Weight, n.Conv, 2, 1, tensorops.FP16, tensorops.Epilogue{})
				break
			}
		}
		if obs.Default.Gauge("tensorops.pack_cache.bytes").Value() <= start {
			t.Fatal("prepacking held no bytes")
		}
	}()
	if end := settledPackBytes(); end != start {
		t.Fatalf("pack_cache.bytes = %v after the model was dropped, %v before it was built", end, start)
	}
}
