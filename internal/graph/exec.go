package graph

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/promise"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// ExecOptions controls a graph execution.
type ExecOptions struct {
	// RNG supplies the reproducible noise stream for PROMISE knobs. It is
	// required whenever the configuration maps any op to a PROMISE level.
	RNG *tensor.RNG
	// Trace, when non-nil, parents a per-execution span (and, while the
	// tracer's graph-detail budget lasts, per-node child spans) under it.
	Trace *obs.Span
}

// Execute runs the program on input under the given configuration and
// returns the output tensor. Unmapped ops run exactly in FP32. Execute
// panics on a structurally invalid knob assignment (use ValidateConfig to
// vet configurations from external sources first).
//
// Batched inputs are sharded across the parallel worker team when the
// graph and configuration permit it (see shardable); the sharded result
// is bit-identical to the serial one, so callers cannot observe which
// path ran. Traced executions stay serial to keep per-node spans intact.
func (g *Graph) Execute(input *tensor.Tensor, cfg approx.Config, opts ExecOptions) *tensor.Tensor {
	sp, opts := g.traced(opts, "full")
	// Two execution paths, because each wins where it runs: a sharded batch
	// is one parallel loop instead of one per kernel, each worker streams
	// its own images through the whole graph, and a batch of one or a team
	// that is already taken has nothing to shard.
	var out *tensor.Tensor
	if opts.Trace == nil && g.shardable(input, cfg) {
		out = g.executeShardedWorkers(input, cfg, opts, parallel.Workers())
	} else {
		out = g.executeOnce(input, cfg, opts)
	}
	sp.End()
	return out
}

// executeOnce is the single-goroutine full run behind Execute and behind
// each of its shards.
func (g *Graph) executeOnce(input *tensor.Tensor, cfg approx.Config, opts ExecOptions) *tensor.Tensor {
	return g.sweep(input, nil, 0, cfg, opts, true)[g.Output]
}

// ExecuteAll runs the program and returns every node's value (indexed by
// node ID). The per-node values let profile collection re-execute only the
// suffix of the graph affected by approximating a single operator. It
// recycles nothing: every value it returns is the caller's.
func (g *Graph) ExecuteAll(input *tensor.Tensor, cfg approx.Config, opts ExecOptions) []*tensor.Tensor {
	sp, opts := g.traced(opts, "all")
	vals := g.sweep(input, nil, 0, cfg, opts, false)
	sp.End()
	return vals
}

// ExecuteFrom re-executes the nodes with ID ≥ from, reusing base values
// for earlier nodes, and returns the program output. base must come from
// ExecuteAll on the same input; it is not mutated. This is the fast path
// of profile collection (§3.2): approximating op k only requires
// recomputing the graph suffix.
func (g *Graph) ExecuteFrom(base []*tensor.Tensor, from int, cfg approx.Config, opts ExecOptions) *tensor.Tensor {
	if len(base) != len(g.Nodes) {
		panic(fmt.Sprintf("graph: base has %d values for %d nodes", len(base), len(g.Nodes)))
	}
	sp, opts := g.traced(opts, "suffix")
	opts.Trace.With("from", from)
	out := g.sweep(nil, base, from, cfg, opts, true)[g.Output]
	sp.End()
	return out
}

// traced opens the per-execution span and returns it with the options the
// nodes run under: Trace is that span while the tracer's graph-detail
// budget lasts, and nil (no per-node spans) otherwise.
func (g *Graph) traced(opts ExecOptions, mode string) (*obs.Span, ExecOptions) {
	sp, detail := g.traceExec(opts.Trace, mode)
	opts.Trace = nil
	if detail {
		opts.Trace = sp
	}
	return sp, opts
}

// sweep is the one node loop: over a private copy of base (nil for a full
// run, whose input nodes take input) it executes every operator with
// ID ≥ from in order and returns all the values. With recycle set, each
// value this sweep computed goes back to the tensor pool right after the
// last node reading it has run (liveness), and later outputs are drawn
// from that memory; the program input, base's values and the output are
// never handed back, and a recycled value's entry in the result is nil.
//
// A recycling sweep also moves a convolution's tanh past the max pool that
// is its only reader, when it runs both (tanhPastPool).
func (g *Graph) sweep(input *tensor.Tensor, base []*tensor.Tensor, from int, cfg approx.Config, opts ExecOptions, recycle bool) []*tensor.Tensor {
	vals := make([]*tensor.Tensor, len(g.Nodes))
	copy(vals, base)
	var owner, last, pool []int32
	if recycle {
		owner, last, pool = g.liveness()
	}
	for _, n := range g.Nodes {
		if n.Kind == OpInput {
			if base == nil {
				vals[n.ID] = input
			}
		} else if n.ID >= from {
			mv := g.tanhPastPool(n, pool, cfg, from)
			mv.halfIn = g.halfInput(n, cfg, from)
			vals[n.ID] = g.execNode(n, vals, cfg.Knob(n.ID), mv, opts)
			if recycle {
				// A buffer dies at its last reader, or at its producer
				// when nothing reads it.
				for _, id := range n.Inputs {
					g.recycleDead(vals, last, owner[id], n.ID, from)
				}
				g.recycleDead(vals, last, owner[n.ID], n.ID, from)
			}
		}
	}
	return vals
}

// recycleDead hands buffer o back to the pool if node at was its last
// reader and this sweep computed it, then marks it handed back so a node
// reading it twice cannot return it twice, and drops the value.
func (g *Graph) recycleDead(vals []*tensor.Tensor, last []int32, o int32, at, from int) {
	if int(last[o]) != at || int(o) < from || g.Nodes[o].Kind == OpInput {
		return
	}
	last[o] = -1
	tensor.Recycle(vals[o])
	vals[o] = nil
}

// liveness derives buffer lifetimes from the topology alone. owner[i] is
// the node whose buffer holds node i's value: i itself, or for a Flatten
// (a view of its input) its input's owner. last[o] is the ID of the last
// node that reads buffer o through any of its views, or −1 for the
// output's buffer, which outlives the sweep. pool[i] is the max pool that
// is the only reader of node i, a convolution with a fused tanh that is not
// the output, and −1 for every other node.
func (g *Graph) liveness() (owner, last, pool []int32) {
	nn := len(g.Nodes)
	buf := make([]int32, 3*nn)
	owner, last, pool = buf[:nn], buf[nn:2*nn], buf[2*nn:]
	for _, n := range g.Nodes {
		o := int32(n.ID)
		if n.Kind == OpFlatten {
			o = owner[n.Inputs[0]]
		}
		owner[n.ID] = o
		// Nodes run in ascending ID, so the latest assignment is the max.
		last[o] = int32(n.ID)
		pool[n.ID] = -1
		for _, id := range n.Inputs {
			last[owner[id]] = int32(n.ID)
			// −1 until a first reader, that reader if it is a max pool,
			// then −2 for good.
			if pool[id] == -1 && n.Kind == OpMaxPool {
				pool[id] = int32(n.ID)
			} else {
				pool[id] = -2
			}
		}
	}
	last[owner[g.Output]] = -1
	for i, n := range g.Nodes {
		if pool[i] < 0 || n.Kind != OpConv || n.Act != ActTanh || i == g.Output {
			pool[i] = -1
		}
	}
	return owner, last, pool
}

// tanhMove tells execNode one half of a tanh moved past a max pool: on the
// convolution, run its epilogue without the tanh; on the pool, apply tanh
// and then, when prec is FP16, the convolution's last half-precision round
// to the pooled values. halfIn tells a max pool, convolution or dense layer
// that its input is already in half precision (halfInput).
type tanhMove struct {
	on     bool
	prec   tensorops.Precision
	halfIn bool
}

// halfInput reports whether n is a max pool, convolution or dense layer
// whose input holds half-precision values this sweep computed (halfValued),
// so that under FP16 it need not round them again.
func (g *Graph) halfInput(n *Node, cfg approx.Config, from int) bool {
	switch n.Kind {
	case OpMaxPool, OpConv, OpMatMul:
		return g.halfValued(n.Inputs[0], cfg, from)
	}
	return false
}

// halfValued reports whether node id's value is the output of an FP16
// convolution this sweep computed (ID ≥ from, so under cfg's knob, not
// whatever knob computed a base value), directly or through max pools and
// Flattens this sweep ran as well: every such convolution output ends in a
// half-precision round, with or without its tanh; a max pool keeps one of
// its window's values, or rounds tanh of it to half when the tanh moved
// past it (tanhPastPool); a Flatten is a view.
func (g *Graph) halfValued(id int, cfg approx.Config, from int) bool {
	for {
		n := g.Nodes[id]
		switch {
		case n.ID < from:
			return false
		case n.Kind == OpMaxPool || n.Kind == OpFlatten:
			id = n.Inputs[0]
		case n.Kind == OpConv:
			return approx.MustLookup(cfg.Knob(n.ID)).Prec == tensorops.FP16
		default:
			return false
		}
	}
}

// tanhPastPool decides the move for node n, a convolution or the max pool
// reading it, from liveness's pool table (nil in a sweep that recycles
// nothing, which moves nothing either): the pool must be the
// convolution's only reader, the sweep must run both (from ≤ the
// convolution), and the knobs must not pair an FP32 convolution with an
// FP16 pool, whose input round would then fall on the pre-activation
// values instead of tanh's.
// Taking the maximum first keeps every bit (tensorops.MaxPoolSampledTanh)
// and saves the tanh of every element the pool drops.
func (g *Graph) tanhPastPool(n *Node, pool []int32, cfg approx.Config, from int) tanhMove {
	if pool == nil {
		return tanhMove{}
	}
	conv := n.ID
	if n.Kind == OpMaxPool {
		conv = n.Inputs[0]
	}
	p := pool[conv]
	if p < 0 || conv < from {
		return tanhMove{}
	}
	prec := approx.MustLookup(cfg.Knob(conv)).Prec
	if prec == tensorops.FP32 && approx.MustLookup(cfg.Knob(int(p))).Prec == tensorops.FP16 {
		return tanhMove{}
	}
	if n.Kind == OpMaxPool {
		mTanhMoves.Inc()
	}
	return tanhMove{on: true, prec: prec}
}

func (g *Graph) execNode(n *Node, vals []*tensor.Tensor, kid approx.KnobID, mv tanhMove, opts ExecOptions) *tensor.Tensor {
	knob := approx.MustLookup(kid)
	observeNode(knob)
	if opts.Trace != nil {
		nsp := opts.Trace.Child("node:"+nodeLabel(n)).With("op", n.ID).With("knob", knob.Name())
		defer nsp.End()
	}
	x := vals[n.Inputs[0]]
	prec := knob.Prec

	switch n.Kind {
	case OpConv:
		// The bias/activation/quantization epilogue is fused into the
		// kernels that compute in the engine; PROMISE perturbs the raw
		// output first, then applies it in a single in-place pass.
		ep := n.fusedEpilogue()
		ep.HalfIn = mv.halfIn
		if mv.on {
			ep.Act = tensorops.ActNone
		}
		var out *tensor.Tensor
		switch knob.Kind {
		case approx.KindBaseline, approx.KindFP16:
			return tensorops.Conv2DFused(x, n.Weight, n.Conv, prec, ep)
		case approx.KindSampling:
			return tensorops.Conv2DFilterSamplingFused(x, n.Weight, n.Conv, knob.Stride, knob.Offset, prec, ep)
		case approx.KindPerforation:
			return tensorops.Conv2DPerforatedFused(x, n.Weight, n.Conv, knob.Dir, knob.Stride, knob.Offset, prec, ep)
		case approx.KindPromise:
			out = tensorops.Conv2D(x, n.Weight, n.Conv, tensorops.FP32)
			g.perturb(out, knob.Level, opts)
			prec = tensorops.FP32
		default:
			panicKnob(n, knob)
		}
		return tensorops.ApplyEpilogue(out, ep, prec)

	case OpMatMul:
		ep := n.fusedEpilogue()
		ep.HalfIn = mv.halfIn
		var out *tensor.Tensor
		switch knob.Kind {
		case approx.KindBaseline, approx.KindFP16:
			return tensorops.MatMulFused(tensorops.Flatten(x), n.Weight, prec, ep)
		case approx.KindPromise:
			out = tensorops.MatMul(tensorops.Flatten(x), n.Weight, tensorops.FP32)
			g.perturb(out, knob.Level, opts)
			prec = tensorops.FP32
		default:
			panicKnob(n, knob)
		}
		return tensorops.ApplyEpilogue(out, ep, prec)

	case OpMaxPool, OpAvgPool:
		num, den := 1, 1
		switch knob.Kind {
		case approx.KindBaseline, approx.KindFP16:
		case approx.KindReduceSampling:
			num, den = knob.RatioNum, knob.RatioDen
		default:
			panicKnob(n, knob)
		}
		switch {
		case mv.on:
			return tensorops.MaxPoolSampledTanh(x, n.Pool, num, den, prec, mv.prec)
		case n.Kind == OpMaxPool && mv.halfIn && prec == tensorops.FP16:
			return tensorops.MaxPoolSampledHalf(x, n.Pool, num, den)
		case n.Kind == OpMaxPool:
			return tensorops.MaxPoolSampled(x, n.Pool, num, den, prec)
		}
		return tensorops.AvgPoolSampled(x, n.Pool, num, den, prec)

	case OpReduce:
		num, den := 1, 1
		switch knob.Kind {
		case approx.KindBaseline, approx.KindFP16:
		case approx.KindReduceSampling:
			num, den = knob.RatioNum, knob.RatioDen
		default:
			panicKnob(n, knob)
		}
		return tensorops.Reduce(x, n.Reduce, num, den, prec)

	case OpReLU:
		requirePrecOnly(n, knob)
		return tensorops.ReLU(x, prec)
	case OpClippedReLU:
		requirePrecOnly(n, knob)
		return tensorops.ClippedReLU(x, n.Clip, prec)
	case OpTanh:
		requirePrecOnly(n, knob)
		return tensorops.Tanh(x, prec)
	case OpBatchNorm:
		requirePrecOnly(n, knob)
		return tensorops.BatchNorm(x, n.BN, prec)
	case OpSoftmax:
		requirePrecOnly(n, knob)
		return tensorops.Softmax(tensorops.Flatten(x), prec)
	case OpAdd:
		requirePrecOnly(n, knob)
		return tensorops.Add(x, vals[n.Inputs[1]], prec)
	case OpFlatten:
		return tensorops.Flatten(x)
	case OpAbs:
		requirePrecOnly(n, knob)
		return tensorops.Abs(x, prec)
	case OpSqrt:
		requirePrecOnly(n, knob)
		return tensorops.Sqrt(x, prec)
	case OpMul:
		requirePrecOnly(n, knob)
		return tensorops.Mul(x, vals[n.Inputs[1]], prec)
	case OpNMS:
		requirePrecOnly(n, knob)
		return tensorops.NonMaxSuppress(x, vals[n.Inputs[1]], vals[n.Inputs[2]], prec)
	case OpHysteresis:
		requirePrecOnly(n, knob)
		return tensorops.Hysteresis(x, n.ThreshLo, n.ThreshHi, prec)
	default:
		panic(fmt.Sprintf("graph: unknown op kind %d", n.Kind))
	}
}

// fusedEpilogue maps the node's bias and activation onto the kernel-level
// epilogue descriptor consumed by the fused tensorops entry points.
func (n *Node) fusedEpilogue() tensorops.Epilogue {
	ep := tensorops.Epilogue{Bias: n.Bias, Clip: n.Clip}
	switch n.Act {
	case ActReLU:
		ep.Act = tensorops.ActReLU
	case ActClippedReLU:
		ep.Act = tensorops.ActClippedReLU
	case ActTanh:
		ep.Act = tensorops.ActTanh
	}
	return ep
}

// InvalidateWeight records an in-place mutation of the node's weight
// tensor by dropping every operand derived from it (packed panels,
// quantized copies, sampled filters). Any pass that rewrites Weight.Data()
// — StandardizeWeights, models.Prune — must call it, or later executions
// would keep using the old weights.
func (n *Node) InvalidateWeight() {
	if n.Weight != nil {
		n.Weight.InvalidateCache()
	}
}

// PrepackWeights marks every conv/matmul weight cacheable and eagerly
// builds the derived operands the execution paths will ask for — packed
// GEMM panels for dense weights (both precisions) and FP16 quantized
// copies for conv weights — so the first tuning executions start warm.
// Idempotent (later calls find them built); returns the number of operands
// ensured.
func (g *Graph) PrepackWeights() int {
	count := 0
	for _, n := range g.Nodes {
		if n.Weight == nil {
			continue
		}
		switch n.Kind {
		case OpConv:
			n.Weight.MarkCacheable()
			count += tensorops.PrepackConvWeight(n.Weight)
		case OpMatMul:
			n.Weight.MarkCacheable()
			count += tensorops.PrepackMatMulWeight(n.Weight)
		}
	}
	return count
}

func (g *Graph) perturb(out *tensor.Tensor, level int, opts ExecOptions) {
	if opts.RNG == nil {
		panic("graph: PROMISE knob requires ExecOptions.RNG")
	}
	promise.Perturb(out, level, opts.RNG)
}

func requirePrecOnly(n *Node, k approx.Knob) {
	if k.Kind != approx.KindBaseline && k.Kind != approx.KindFP16 {
		panicKnob(n, k)
	}
}

func panicKnob(n *Node, k approx.Knob) {
	panic(fmt.Sprintf("graph: knob %s not applicable to %s node %q", k.Name(), n.Kind, n.Name))
}

// StandardizeWeights folds an inference-time normalization into every
// convolution and dense node: running a probe batch through the network,
// it rescales each node's weights and bias so the pre-activation outputs
// have per-channel zero mean and unit variance on the probe. This is the
// build-time equivalent of folding trained batch-norm statistics into the
// preceding convolution — standard practice in deployed inference — and
// keeps deep synthetic networks well-conditioned so their predictions vary
// across inputs.
func (g *Graph) StandardizeWeights(probe *tensor.Tensor) {
	vals := make([]*tensor.Tensor, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind == OpInput {
			vals[n.ID] = probe
			continue
		}
		if n.Kind == OpConv || n.Kind == OpMatMul {
			raw := g.rawLinear(n, vals)
			standardizeNode(n, raw)
			// The weights just changed in place: stale packed panels and
			// quantized copies must never serve another execution.
			n.InvalidateWeight()
		}
		vals[n.ID] = g.execNode(n, vals, approx.KnobFP32, tanhMove{}, ExecOptions{})
	}
}

// rawLinear computes a conv/matmul node's pre-activation output (weights
// applied, bias added, activation NOT applied) in exact FP32.
func (g *Graph) rawLinear(n *Node, vals []*tensor.Tensor) *tensor.Tensor {
	x := vals[n.Inputs[0]]
	ep := tensorops.Epilogue{Bias: n.Bias}
	if n.Kind == OpConv {
		return tensorops.Conv2DFused(x, n.Weight, n.Conv, tensorops.FP32, ep)
	}
	return tensorops.MatMulFused(tensorops.Flatten(x), n.Weight, tensorops.FP32, ep)
}

// standardizeNode rescales the node's weights/bias so the given raw output
// would have had per-output-channel zero mean and unit variance.
func standardizeNode(n *Node, raw *tensor.Tensor) {
	channels := raw.Dim(1)
	mean := make([]float64, channels)
	m2 := make([]float64, channels)
	count := make([]float64, channels)
	d := raw.Data()
	if n.Kind == OpConv {
		nb, sp := raw.Dim(0), raw.Dim(2)*raw.Dim(3)
		for img := 0; img < nb; img++ {
			for c := 0; c < channels; c++ {
				seg := d[(img*channels+c)*sp : (img*channels+c+1)*sp]
				for _, v := range seg {
					mean[c] += float64(v)
					m2[c] += float64(float64(v) * float64(v))
					count[c]++
				}
			}
		}
	} else {
		nb := raw.Dim(0)
		for img := 0; img < nb; img++ {
			row := d[img*channels : (img+1)*channels]
			for c, v := range row {
				mean[c] += float64(v)
				m2[c] += float64(float64(v) * float64(v))
				count[c]++
			}
		}
	}
	for c := 0; c < channels; c++ {
		mean[c] /= count[c]
		variance := m2[c]/count[c] - float64(mean[c]*mean[c])
		std := math.Sqrt(math.Max(variance, 1e-6))
		if std < 1e-3 {
			std = 1e-3
		}
		scaleOutputChannel(n, c, float32(1/std), float32(-mean[c]/std))
	}
}

// scaleOutputChannel applies w' = w*scale, b' = b*scale + shift to output
// channel c of a conv (weight rows) or matmul (weight columns) node.
func scaleOutputChannel(n *Node, c int, scale, shift float32) {
	wd := n.Weight.Data()
	if n.Kind == OpConv {
		fvol := n.Weight.Elems() / n.Weight.Dim(0)
		seg := wd[c*fvol : (c+1)*fvol]
		for i := range seg {
			seg[i] *= scale
		}
	} else {
		m := n.Weight.Dim(1)
		k := n.Weight.Dim(0)
		for r := 0; r < k; r++ {
			wd[r*m+c] *= scale
		}
	}
	if n.Bias == nil {
		if n.Kind == OpConv {
			n.Bias = tensor.New(n.Weight.Dim(0))
		} else {
			n.Bias = tensor.New(n.Weight.Dim(1))
		}
	}
	bd := n.Bias.Data()
	bd[c] = float32(bd[c]*scale) + shift
}

// ValidateConfig checks that every knob in cfg is applicable to the node
// it targets; it guards against malformed shipped configurations.
func (g *Graph) ValidateConfig(cfg approx.Config) error {
	for op, kid := range cfg {
		if op < 0 || op >= len(g.Nodes) {
			return fmt.Errorf("graph %q: config references op %d of %d", g.Name, op, len(g.Nodes))
		}
		knob, ok := approx.Lookup(kid)
		if !ok {
			return fmt.Errorf("graph %q: unknown knob %d on op %d", g.Name, kid, op)
		}
		n := g.Nodes[op]
		ok = false
		for _, valid := range approx.KnobsFor(n.Kind.Class(), true) {
			if valid == kid {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("graph %q: knob %s not applicable to %s node %q", g.Name, knob.Name(), n.Kind, n.Name)
		}
	}
	return nil
}
