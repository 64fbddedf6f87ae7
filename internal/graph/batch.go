package graph

import (
	"repro/internal/approx"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Batch-sharded data-parallel execution. Every tensor operator in the IR
// computes each batch element independently (convolution, pooling, NMS
// and hysteresis are per-image; matmul and softmax are per-row; the
// elementwise ops trivially so), so a batch-N execution can split into
// contiguous batch shards, run the whole graph per shard on separate
// workers, and concatenate the outputs in index order. Because every
// kernel's per-element arithmetic is independent of the batch dimension
// (GEMM row dispatch differences are themselves bit-identical — see the
// engine notes in tensorops/gemm.go), the sharded output is bit-identical
// to the serial one; TestExecuteShardedBitIdentical pins this with a
// sha256 over the output bytes.

// shardable reports whether this (input, cfg) execution may split across
// batch shards. Excluded: sub-batch inputs; configurations with PROMISE
// knobs (the perturbation RNG stream is sequential over the whole batch);
// graphs whose output is the input node itself or a view of it (a shard's
// output is recycled once copied, and that one is the caller's input); and
// moments when the worker team is taken (an outer parallel loop is running
// — the shards would serialize inline and only add concatenation overhead).
func (g *Graph) shardable(input *tensor.Tensor, cfg approx.Config) bool {
	if input.Rank() < 2 || input.Dim(0) < 2 {
		return false
	}
	out := g.Output
	for g.Nodes[out].Kind == OpFlatten {
		out = g.Nodes[out].Inputs[0]
	}
	if g.Nodes[out].Kind == OpInput {
		return false
	}
	if parallel.Available() == 0 {
		return false
	}
	for _, n := range g.Nodes {
		if approx.MustLookup(cfg.Knob(n.ID)).Kind == approx.KindPromise {
			return false
		}
	}
	return true
}

// executeShardedWorkers splits the batch into contiguous shards (one per
// worker, mirroring parallel.ForChunked's partition), runs the full graph on
// each shard concurrently, and concatenates the shard outputs in batch order
// into a pooled tensor; each shard's output goes back to the pool once it is
// copied. The shard-count target is explicit so the shard/concatenate path
// is exercisable (and its bit-identity pinnable) regardless of the host's
// core count; Execute passes parallel.Workers().
func (g *Graph) executeShardedWorkers(input *tensor.Tensor, cfg approx.Config, opts ExecOptions, workers int) *tensor.Tensor {
	n := input.Dim(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	numChunks := (n + chunk - 1) / chunk
	if numChunks <= 1 {
		return g.executeOnce(input, cfg, opts)
	}

	item := input.Elems() / n
	dims := input.Shape().Dims()
	xd := input.Data()
	outs := make([]*tensor.Tensor, numChunks)
	parallel.For(numChunks, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		sdims := append([]int{hi - lo}, dims[1:]...)
		shard := tensor.FromSlice(xd[lo*item:hi*item], sdims...)
		outs[ci] = g.executeOnce(shard, cfg, opts)
	})

	first := outs[0]
	per := first.Elems() / first.Dim(0)
	odims := append([]int{n}, first.Shape().Dims()[1:]...)
	out := tensor.NewPooled(odims...) // the shards' copies store every element
	od := out.Data()
	for ci, so := range outs {
		copy(od[ci*chunk*per:], so.Data())
		tensor.Recycle(so)
	}
	return out
}
