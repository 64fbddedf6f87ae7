package models

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Graph execution hands every intermediate activation back to the tensor
// pool once its last reader has run, and later node outputs reuse that
// memory. These tests hold that to the zoo models the repo benchmark runs:
// recycling must not move a bit, must not touch buffers the caller owns, must
// stay correct with executions of one graph in flight at once, and must keep
// a call's garbage small.

// bitsDigest is the sha256 of t's shape and element bits.
func bitsDigest(t *tensor.Tensor) [32]byte {
	h := sha256.New()
	var b [4]byte
	for _, d := range t.Shape().Dims() {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestExecuteRecyclingMatchesExecuteAll: for the four zoo models under the
// four exec_fresh configurations at batch 1 and 16, Execute must return the
// bits of ExecuteAll's output node, which recycles nothing, on a first call
// and on a second that draws from the buffers the first handed back.
// ExecuteFrom over ExecuteAll's baseline values, with one op approximated,
// must return Execute's bits for that configuration and leave every base
// value and the input as they were.
func TestExecuteRecyclingMatchesExecuteAll(t *testing.T) {
	for _, name := range benchModels {
		m := buildBench(name)
		g := m.Graph
		rng := tensor.NewRNG(7)
		for _, batch := range []int{1, 16} {
			in := tensor.New(m.InputShape(batch).Dims()...)
			rng.FillNormal(in, 0, 1)
			inSum := bitsDigest(in)
			for i, c := range benchConfigs {
				cfg := benchConfig(g, i)
				want := bitsDigest(g.ExecuteAll(in, cfg, graph.ExecOptions{})[g.Output])
				for call := 1; call <= 2; call++ {
					if got := bitsDigest(g.Execute(in, cfg, graph.ExecOptions{})); got != want {
						t.Errorf("%s b%d %s: Execute call %d differs from ExecuteAll's output", name, batch, c.name, call)
					}
				}
			}

			base := g.ExecuteAll(in, nil, graph.ExecOptions{})
			baseSums := make([][32]byte, len(base))
			for id, v := range base {
				baseSums[id] = bitsDigest(v)
			}
			for _, op := range g.ApproxOps() {
				cfg := approx.Config{op: approx.KnobFP16}
				want := bitsDigest(g.Execute(in, cfg, graph.ExecOptions{}))
				if got := bitsDigest(g.ExecuteFrom(base, op, cfg, graph.ExecOptions{})); got != want {
					t.Errorf("%s b%d: ExecuteFrom(op %d) differs from Execute", name, batch, op)
				}
			}
			for id, v := range base {
				if bitsDigest(v) != baseSums[id] {
					t.Errorf("%s b%d: ExecuteFrom changed base value %d (%s)", name, batch, id, g.Nodes[id].Kind)
				}
			}
			if bitsDigest(in) != inSum {
				t.Errorf("%s b%d: execution changed the input", name, batch)
			}
		}
	}
}

// TestExecuteStoresEveryElement: kernel outputs and scratch come from the
// pool uncleared, so every kernel must store each element it hands on.
// With every drawn buffer filled with a NaN pattern (tensor.PoisonDraws), the
// four zoo models under the four exec_fresh configurations at batch 1 and
// 16 must return the bits they return without it, through Execute and
// through ExecuteFrom from the first and from a middle approximable op.
func TestExecuteStoresEveryElement(t *testing.T) {
	for _, name := range benchModels {
		m := buildBench(name)
		g := m.Graph
		ops := g.ApproxOps()
		rng := tensor.NewRNG(13)
		for _, batch := range []int{1, 16} {
			in := tensor.New(m.InputShape(batch).Dims()...)
			rng.FillNormal(in, 0, 1)
			base := g.ExecuteAll(in, nil, graph.ExecOptions{})
			run := func() (sums [][32]byte) {
				for i := range benchConfigs {
					cfg := benchConfig(g, i)
					sums = append(sums, bitsDigest(g.Execute(in, cfg, graph.ExecOptions{})))
					for _, from := range []int{ops[0], ops[len(ops)/2]} {
						sums = append(sums, bitsDigest(g.ExecuteFrom(base, from, cfg, graph.ExecOptions{})))
					}
				}
				return sums
			}
			want := run()
			prev := tensor.PoisonDraws(true)
			got := run()
			tensor.PoisonDraws(prev)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s b%d %s: poisoned pool changed output %d (Execute, then ExecuteFrom from two ops)",
						name, batch, benchConfigs[i/3].name, i%3)
				}
			}
		}
	}
}

// TestExecuteConcurrent runs each zoo model from four goroutines at once —
// serve's batches and the tuner's parallel candidates share graphs and the
// pool — and requires every output to match a serial run's digest. Batch 3
// takes the sharded path whenever the worker team is free. `make race` runs
// it at -cpu 1,2,4.
func TestExecuteConcurrent(t *testing.T) {
	type job struct {
		in   *tensor.Tensor
		cfg  approx.Config
		want [32]byte
	}
	for _, name := range benchModels {
		m := buildBench(name)
		g := m.Graph
		rng := tensor.NewRNG(11)
		var jobs []job
		for _, batch := range []int{1, 3} {
			for i := range benchConfigs {
				in := tensor.New(m.InputShape(batch).Dims()...)
				rng.FillNormal(in, 0, 1)
				cfg := benchConfig(g, i)
				jobs = append(jobs, job{in, cfg, bitsDigest(g.Execute(in, cfg, graph.ExecOptions{}))})
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := range jobs {
					j := jobs[(r+w*3)%len(jobs)] // each goroutine in its own order
					if bitsDigest(g.Execute(j.in, j.cfg, graph.ExecOptions{})) != j.want {
						t.Errorf("%s: goroutine %d, job %d differs from the serial run", name, w, (r+w*3)%len(jobs))
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestExecuteBytesPerCall pins what one resnet18 batch-16 exact Execute
// allocates: with every intermediate recycled it is ≈ 66 KB (tensor
// headers, shapes, the fused epilogues, the value slice), where a
// fresh buffer per node was 18.9 MB. A round of ten calls is measured three
// times and the smallest kept, since a collection between two calls may
// empty the pool's arenas.
func TestExecuteBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const calls, limit = 10, 256 << 10
	m := buildBench("resnet18")
	cfg := benchConfig(m.Graph, 0)
	in := tensor.New(m.InputShape(16).Dims()...)
	tensor.NewRNG(3).FillNormal(in, 0, 1)
	m.Graph.Execute(in, cfg, graph.ExecOptions{}) // first-use set-up, and the pool's classes
	best := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			m.Graph.Execute(in, cfg, graph.ExecOptions{})
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if best > limit {
		t.Errorf("resnet18 b16 exact Execute allocates %d B per call, want at most %d", best, limit)
	}
	t.Logf("%d B per call", best)
}

// TestExecuteAllocs pins the heap allocations of one exact batch-1 Execute
// of each zoo model at GOMAXPROCS 1, where no loop hands a closure to the
// worker team: tensor headers and shapes, the fused epilogues, the value
// slice and liveness table. The convolutions' lowerings are kept on their
// weights, so a warm call builds none. Moving a tanh past a max pool must
// not add one.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := map[string]float64{"lenet": 37, "alexnet2": 51, "resnet18": 133, "mobilenet": 125}
	for _, name := range benchModels {
		m := buildBench(name)
		cfg := benchConfig(m.Graph, 0)
		in := tensor.New(m.InputShape(1).Dims()...)
		tensor.NewRNG(5).FillNormal(in, 0, 1)
		got := testing.AllocsPerRun(20, func() {
			tensor.Recycle(m.Graph.Execute(in, cfg, graph.ExecOptions{}))
		})
		if got != want[name] {
			t.Errorf("%s: %v allocations per Execute, want %v", name, got, want[name])
		}
	}
}
