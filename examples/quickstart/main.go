// Quickstart: build a small CNN with the dataflow-graph IR, wrap it in an
// App, run all three tuning phases — development-time predictive tuning
// with a 4-percentage-point accuracy budget, install-time refinement on
// the TX2 GPU model, and a short runtime-adaptation episode — and inspect
// the shipped tradeoff curve.
//
// Observability: -trace out.jsonl exports a JSONL span trace covering the
// three phases, -metrics-addr :8090 serves live /metrics and
// /debug/pprof, and -v prints extra diagnostics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	approxtuner "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

func main() {
	oc := obs.RegisterFlags(nil)
	flag.Parse()
	if err := oc.Activate(os.Stderr); err != nil {
		log.Fatal(err)
	}
	defer oc.Close()
	// 1. Build a small CNN as an ApproxHPVM-style dataflow graph. Every
	// convolution / dense / pooling node becomes a tunable operation.
	rng := tensor.NewRNG(7)
	g := graph.New("quickstart")
	w1 := tensor.New(16, 1, 5, 5)
	rng.FillHe(w1, 25)
	c1 := g.ConvAct(g.InputID(), w1, nil, tensorops.ConvParams{PadH: 2, PadW: 2}, graph.ActReLU, 0, "conv1")
	p1 := g.MaxPool(c1, tensorops.PoolParams{KH: 2, KW: 2})
	w2 := tensor.New(32, 16, 5, 5)
	rng.FillHe(w2, 16*25)
	c2 := g.ConvAct(p1, w2, nil, tensorops.ConvParams{PadH: 2, PadW: 2}, graph.ActReLU, 0, "conv2")
	p2 := g.MaxPool(c2, tensorops.PoolParams{KH: 2, KW: 2})
	fl := g.Flatten(p2)
	wf := tensor.New(32*7*7, 10)
	rng.FillXavier(wf, 32*7*7, 10)
	fc := g.MatMul(fl, wf, nil, "fc")
	g.Softmax(fc)

	// Normalize the synthetic weights (the builders in internal/models do
	// this automatically).
	probe := datasets.MNISTLike(8, 99)
	g.StandardizeWeights(probe.Images)

	// 2. Data: a synthetic MNIST-like set with labels planted from the
	// network's own baseline at 98% accuracy.
	ds := datasets.MNISTLike(64, 3)
	m := &models.Model{Graph: g, C: 1, H: 28, W: 28, Classes: 10}
	baseline := models.PlantLabels(m, ds, 98.0, 32, 4)
	calib, test := ds.Split()
	fmt.Printf("network: %d layers, %d tunable ops, baseline accuracy %.2f%%\n",
		g.LayerCount(), len(g.ApproxOps()), baseline)

	// 3. Tune: only the end-to-end quality budget is required.
	app, err := approxtuner.NewCNNApp(g, calib.Images, calib.Labels, test.Images, test.Labels)
	if err != nil {
		log.Fatal(err)
	}
	res, err := app.TuneDevelopmentTime(approxtuner.TuneSpec{
		MaxQoSLoss: 4,
		MaxIters:   2000,
		Model:      approxtuner.Pi1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the shipped curve and measure the winners on the device
	// models.
	gpu := approxtuner.TX2GPU()
	fmt.Printf("\nshipped tradeoff curve (%d points):\n", res.Curve.Len())
	for _, pt := range res.Curve.Points {
		fmt.Printf("  calib QoS %6.2f%%  predicted %4.2fx  gpu %4.2fx  %s\n",
			pt.QoS, pt.Perf, app.MeasureSpeedup(pt.Config, gpu),
			approxtuner.DescribeConfig(pt.Config))
	}
	if best, ok := res.Curve.Best(app.BaselineQoS - 4); ok {
		fmt.Printf("\nbest within budget: %.2fx on GPU at test accuracy %.2f%%\n",
			app.MeasureSpeedup(best.Config, gpu), app.Evaluate(best.Config))
	}
	fmt.Printf("tuning took %v (%d search iterations, α=%.3f)\n",
		res.Stats.Total.Round(1e6), res.Stats.Iterations, res.Stats.Alpha)

	// 5. Install time: re-measure the shipped curve on the device model,
	// dropping points whose real QoS misses the budget.
	inst, err := app.RefineOnDevice(res.Curve, gpu, approxtuner.TuneSpec{MaxQoSLoss: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninstall-time refined curve: %d points\n", inst.Curve.Len())

	// 6. Runtime: hold the exact configuration's batch time while the GPU
	// drops down one DVFS step.
	costs := app.Program().Costs()
	target := gpu.Time(costs, nil)
	rt, err := app.NewRuntime(inst.Curve, approxtuner.PolicyAverage, target, 1)
	if err != nil {
		log.Fatal(err)
	}
	gpu.SetFrequencyMHz(852)
	for i := 0; i < 6; i++ {
		pt, idx := rt.Acquire()
		rt.RecordInvocationAt(idx, gpu.Time(costs, pt.Config))
	}
	active, _ := rt.Acquire()
	fmt.Printf("runtime at 852 MHz: %d config switches, active %s\n",
		rt.Switches(), approxtuner.DescribeConfig(active.Config))
	rt.Close()
}
