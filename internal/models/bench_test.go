package models

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// benchConfigs are the repo benchmark's four exec_fresh configurations.
var benchConfigs = []struct {
	name string
	conv approx.KnobID // knob of every convolution; others run exact FP32
	all  approx.KnobID // knob of every other approximable op
}{
	{"exact", approx.KnobFP32, approx.KnobFP32},
	{"fp16", approx.KnobFP16, approx.KnobFP16},
	{"samp50", approx.SamplingKnob(2, 0, tensorops.FP32), approx.KnobFP32},
	{"perf50", approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32), approx.KnobFP32},
}

// benchModels are the repo benchmark's four zoo models, built at its scale.
var benchModels = []string{"lenet", "alexnet2", "resnet18", "mobilenet"}

// buildBench builds and prepacks one of benchModels at the repo benchmark's
// scale (width 0.25).
func buildBench(name string) *Model {
	m := MustBuild(name, Scale{Images: 16, Width: 0.25, Seed: 1}).Model
	m.Graph.PrepackWeights()
	return m
}

// benchConfig is configuration i of benchConfigs on g.
func benchConfig(g *graph.Graph, i int) approx.Config {
	c := benchConfigs[i]
	cfg := approx.Config{}
	classes := g.OpClasses()
	for j, op := range g.ApproxOps() {
		cfg[op] = c.all
		if classes[j] == approx.OpConv {
			cfg[op] = c.conv
		}
	}
	return cfg
}

// benchExecute runs one sub-benchmark per model, which builds and prepacks
// that model (width 0.25) only when the -bench pattern selects it, so a
// one-model -cpuprofile holds that model's work alone. Under it, cell runs
// each configuration: graph.Execute on a fresh batch of the given size, the
// median call reported as p50-µs and as items/s. ns/op is the mean and
// includes drawing the input, which is also the pause between two calls
// that a serving process would have.
func benchExecute(b *testing.B, batch int, cell func(b *testing.B, name string, run func(b *testing.B))) {
	for _, name := range benchModels {
		b.Run(name, func(b *testing.B) {
			m := buildBench(name)
			for i, c := range benchConfigs {
				cfg := benchConfig(m.Graph, i)
				cell(b, c.name, func(b *testing.B) {
					rng := tensor.NewRNG(1)
					in := tensor.New(m.InputShape(batch).Dims()...)
					took := make([]time.Duration, 0, b.N)
					m.Graph.Execute(in, cfg, graph.ExecOptions{}) // first-use set-up
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rng.FillNormal(in, 0, 1)
						t0 := time.Now()
						m.Graph.Execute(in, cfg, graph.ExecOptions{})
						took = append(took, time.Since(t0))
					}
					sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
					p50 := took[len(took)/2]
					b.ReportMetric(float64(p50)/1e3, "p50-µs")
					b.ReportMetric(float64(batch)/p50.Seconds(), "items/s")
				})
			}
		})
	}
}

// BenchmarkExecuteB1 is one graph.Execute of a single fresh item on each of
// the repo benchmark's four prepacked zoo models under its four
// configurations, at GOMAXPROCS 1 and 2 — the 16 batch-1 cells behind
// exec_fresh's latency_p50_ms, runnable without the harness. A cell that
// reads slower at procs=2 than at procs=1 means the second core costs a
// batch-1 call more in dispatch than it gives back in arithmetic.
//
//	go test ./internal/models -run '^$' -bench ExecuteB1 -benchtime 200x
func BenchmarkExecuteB1(b *testing.B) {
	benchExecute(b, 1, func(b *testing.B, name string, run func(b *testing.B)) {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				run(b)
			})
		}
	})
}

// BenchmarkExecuteB16 is the batch-16 grid behind exec_fresh's
// goodput_per_s (the geometric mean of its 16 items/s readings), at the
// -cpu setting. Anchor a model name: -bench matches each level as a
// substring, and "lenet" alone also selects mobilenet.
//
//	go test ./internal/models -run '^$' -bench 'ExecuteB16/^lenet$' -benchtime 100x -cpuprofile cpu.out
func BenchmarkExecuteB16(b *testing.B) {
	benchExecute(b, 16, func(b *testing.B, name string, run func(b *testing.B)) {
		b.Run(name, run)
	})
}
