package graph

import (
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/approx"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

func outDigest(t *tensor.Tensor) [32]byte {
	h := sha256.New()
	buf := make([]byte, 4)
	for _, v := range t.Data() {
		bits := math.Float32bits(v)
		buf[0] = byte(bits)
		buf[1] = byte(bits >> 8)
		buf[2] = byte(bits >> 16)
		buf[3] = byte(bits >> 24)
		h.Write(buf)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestExecuteShardedBitIdentical pins the batch-parallel contract: for
// every shardable configuration, Execute (which may split the batch across
// workers) must produce the same sha256 over the output bits as the serial
// single-shard path. The narrow net's second convolution has a 2×2 output,
// fewer columns than a GEMM panel pair, so the images of a shard share one
// GEMM N: how many there are, and where an image's columns land, changes
// with the shard, and the bits must not.
func TestExecuteShardedBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(31)
	gr, narrow := tinyNet(rng), narrowNet(rng)
	in := tensor.New(11, 1, 8, 8) // odd batch: uneven final shard
	rng.FillNormal(in, 0, 1)
	narrowIn := tensor.New(11, 1, 4, 4)
	rng.FillNormal(narrowIn, 0, 1)
	convOp := gr.ApproxOps()[0]
	fcOp := gr.ApproxOps()[4]
	narrowConv := narrow.ApproxOps()[2]

	cases := []struct {
		name string
		gr   *Graph
		in   *tensor.Tensor
		cfg  approx.Config
	}{
		{"baseline", gr, in, nil},
		{"fp16-conv", gr, in, approx.Config{convOp: approx.KnobFP16}},
		{"fp16-fc", gr, in, approx.Config{fcOp: approx.KnobFP16}},
		{"sampling", gr, in, approx.Config{convOp: approx.SamplingKnob(2, 0, tensorops.FP32)}},
		{"perforation", gr, in, approx.Config{convOp: approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP16)}},
		{"narrow-baseline", narrow, narrowIn, nil},
		{"narrow-perforation-rows", narrow, narrowIn, approx.Config{narrowConv: approx.PerforationKnob(tensorops.PerfRows, 2, 1, tensorops.FP32)}},
		{"narrow-perforation-cols", narrow, narrowIn, approx.Config{narrowConv: approx.PerforationKnob(tensorops.PerfCols, 3, 0, tensorops.FP16)}},
	}
	for _, tc := range cases {
		serial := tc.gr.executeOnce(tc.in, tc.cfg, ExecOptions{})
		// Force multiple shard counts regardless of the host's core count:
		// 3 workers gives uneven shards [0,4) [4,8) [8,11), 11 gives
		// single-image shards.
		for _, workers := range []int{2, 3, 11} {
			sharded := tc.gr.executeShardedWorkers(tc.in, tc.cfg, ExecOptions{}, workers)
			if !serial.Shape().Equal(sharded.Shape()) {
				t.Fatalf("%s workers=%d: shape %v vs %v", tc.name, workers, sharded.Shape(), serial.Shape())
			}
			if outDigest(serial) != outDigest(sharded) {
				t.Errorf("%s workers=%d: sharded output differs from serial (sha256 mismatch)", tc.name, workers)
			}
		}
		// And the public entry point (whichever path it picks) agrees too.
		if outDigest(tc.gr.Execute(tc.in, tc.cfg, ExecOptions{})) != outDigest(serial) {
			t.Errorf("%s: Execute differs from serial", tc.name)
		}
	}
}

// narrowNet is tinyNet on a 4×4 input: its second convolution, eight
// channels over a 2×2 output, is narrower than a GEMM panel pair.
func narrowNet(g *tensor.RNG) *Graph {
	gr := New("narrow")
	w1 := tensor.New(4, 1, 3, 3)
	g.FillHe(w1, 9)
	c1 := gr.ConvAct(gr.InputID(), w1, nil, tensorops.ConvParams{PadH: 1, PadW: 1}, ActReLU, 0, "conv1")
	p1 := gr.MaxPool(c1, tensorops.PoolParams{KH: 2, KW: 2})
	w2 := tensor.New(8, 4, 3, 3)
	g.FillHe(w2, 36)
	b2 := tensor.New(8)
	g.FillNormal(b2, 0, 0.1)
	c2 := gr.ConvAct(p1, w2, b2, tensorops.ConvParams{PadH: 1, PadW: 1}, ActTanh, 0, "conv2")
	fl := gr.Flatten(c2)
	wf := tensor.New(8*2*2, 10)
	g.FillXavier(wf, 32, 10)
	fc := gr.MatMul(fl, wf, nil, "fc")
	gr.Softmax(fc)
	return gr
}

// TestShardableExclusions: the configurations whose semantics couple batch
// elements (PROMISE's sequential noise stream) and degenerate inputs must
// refuse to shard.
func TestShardableExclusions(t *testing.T) {
	rng := tensor.NewRNG(37)
	gr := tinyNet(rng)
	in := tensor.New(8, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	convOp := gr.ApproxOps()[0]

	// The positive case depends on the worker pool having capacity, which a
	// single-core host never has.
	if parallel.Available() > 0 && !gr.shardable(in, nil) {
		t.Fatal("plain batch config should shard")
	}
	single := tensor.New(1, 1, 8, 8)
	if gr.shardable(single, nil) {
		t.Error("batch of one sharded")
	}
	if gr.shardable(in, approx.Config{convOp: approx.PromiseKnob(4)}) {
		t.Error("PROMISE config sharded (RNG stream is batch-sequential)")
	}
}

// TestStandardizeWeightsInvalidatesCache: standardization mutates weights
// in place after FP16 executions have built the derived operands; a later
// FP16 execution must see the new weights, matching a twin graph that was
// standardized before anything was derived.
func TestStandardizeWeightsInvalidatesCache(t *testing.T) {
	build := func() *Graph { return tinyNet(tensor.NewRNG(41)) }
	gr := build()
	twin := build()

	rng := tensor.NewRNG(43)
	in := tensor.New(4, 1, 8, 8)
	rng.FillNormal(in, 0, 1)
	cfg := approx.Config{}
	for _, op := range gr.ApproxOps() {
		if k := gr.Nodes[op].Kind; k == OpConv || k == OpMatMul {
			cfg[op] = approx.KnobFP16
		}
	}

	// Build the operands of the pre-standardization weights.
	gr.PrepackWeights()
	gr.Execute(in, cfg, ExecOptions{})

	gr.StandardizeWeights(in)
	twin.StandardizeWeights(in)

	got := gr.Execute(in, cfg, ExecOptions{})
	want := twin.Execute(in, cfg, ExecOptions{})
	if outDigest(got) != outDigest(want) {
		t.Fatal("FP16 execution after StandardizeWeights used stale cached panels")
	}
}

// TestPrepackWeightsCounts: every conv/matmul node with a weight registers.
func TestPrepackWeightsCounts(t *testing.T) {
	gr := tinyNet(tensor.NewRNG(47))
	n := gr.PrepackWeights()
	if n != 4 { // conv1 + conv2 (FP16 copies), fc (FP32 + FP16 panels)
		t.Fatalf("PrepackWeights = %d cache entries, want 4", n)
	}
	for _, nd := range gr.Nodes {
		if nd.Weight == nil {
			continue
		}
		if _, ok := nd.Weight.DerivedBytes(); !ok {
			t.Errorf("node %d weight not cacheable after prepack", nd.ID)
		}
	}
}
