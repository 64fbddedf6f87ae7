// Runtime adaptation example (§5, §7.5): ship a tradeoff curve with the
// application, then let the runtime controller hold the original batch
// time while the GPU is forced down its DVFS ladder, switching
// approximation knobs on the fly.
package main

import (
	"fmt"
	"log"

	approxtuner "repro"
	"repro/internal/device"
	"repro/internal/models"
)

func main() {
	b := models.MustBuild("alexnet2", models.Scale{Images: 64, Width: 0.25, Seed: 9})
	calib, test := b.Dataset.Split()
	app, err := approxtuner.NewCNNApp(b.Model.Graph, calib.Images, calib.Labels, test.Images, test.Labels)
	if err != nil {
		log.Fatal(err)
	}

	spec := approxtuner.TuneSpec{MaxQoSLoss: 7, MaxIters: 2000, NCalibrate: 12}
	dev, err := app.TuneDevelopmentTime(spec)
	if err != nil {
		log.Fatal(err)
	}
	gpu := approxtuner.TX2GPU()
	inst, err := app.RefineOnDevice(dev.Curve, gpu, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final curve has %d points (speedups %.2fx–%.2fx)\n",
		inst.Curve.Len(), inst.Curve.Points[0].Perf,
		inst.Curve.Points[inst.Curve.Len()-1].Perf)

	// The performance goal: the exact configuration's batch time at the
	// highest frequency.
	costs := app.Program().Costs()
	target := gpu.Time(costs, nil)
	rt, err := app.NewRuntime(inst.Curve, approxtuner.PolicyAverage, target, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	fmt.Printf("\n%-10s %-12s %-12s %-22s\n", "freq(MHz)", "batch-time", "vs target", "active config")
	for _, f := range device.Freqs {
		gpu.SetFrequencyMHz(f)
		// Run a few batches at this frequency; the monitor reacts after
		// each invocation.
		var last float64
		for i := 0; i < 6; i++ {
			pt, idx := rt.Acquire()
			last = gpu.Time(costs, pt.Config)
			rt.RecordInvocationAt(idx, last)
		}
		active, _ := rt.Acquire()
		fmt.Printf("%-10.0f %-12.2e %-12.2f %-22s\n",
			f, last, last/target, approxtuner.DescribeConfig(active.Config))
	}
	fmt.Printf("\nconfiguration switches: %d (switching cost is negligible —\n", rt.Switches())
	fmt.Println("knob settings are just numeric parameters of the tensor ops)")
}
