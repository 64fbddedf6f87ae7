// Command installtune runs ApproxTuner's install-time phase for a
// built-in benchmark: it reruns development-time tuning to obtain the
// shipped curve and profiles, then refines on the chosen device —
// including distributed predictive tuning over the PROMISE accelerator's
// voltage knobs when the energy objective is selected.
//
// Usage:
//
//	installtune -benchmark alexnet2 -device gpu -objective energy -edges 8
//
// The -edges devices are goroutines of this process (core.InstallTune's
// fleet), each profiling and validating its own calibration shard.
//
// Observability: -trace out.jsonl exports a JSONL span trace of the run,
// -metrics-addr :8090 serves live /metrics (OpenMetrics), /healthz and
// /debug/pprof, -telemetry prints an end-of-run metric summary table,
// and -v / -q adjust progress verbosity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	approxtuner "repro"
	"repro/internal/models"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 2 on a usage error, 1 on any other.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("installtune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark = fs.String("benchmark", "lenet", "one of: "+strings.Join(models.Names(), ", "))
		devName   = fs.String("device", "gpu", "target device: gpu or cpu")
		objective = fs.String("objective", "time", "optimize: time or energy")
		edges     = fs.Int("edges", 8, "simulated edge devices for distributed tuning")
		loss      = fs.Float64("max-qos-loss", 1.0, "acceptable accuracy loss (pp)")
		images    = fs.Int("images", 64, "dataset size")
		width     = fs.Float64("width", 0.25, "channel-width multiplier")
		iters     = fs.Int("iters", 3000, "search iteration cap")
		out       = fs.String("o", "", "write the final curve JSON to this file (default stdout)")
		seed      = fs.Int64("seed", 1, "seed")
	)
	oc := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "installtune: %v\n", err)
		return 1
	}
	if err := oc.Activate(stderr); err != nil {
		return fail(err)
	}
	defer oc.Close()
	logger := oc.Log

	var dev *approxtuner.Device
	switch strings.ToLower(*devName) {
	case "gpu":
		dev = approxtuner.TX2GPU()
	case "cpu":
		dev = approxtuner.TX2CPU()
	default:
		return fail(fmt.Errorf("unknown device %q", *devName))
	}
	b, err := models.Build(*benchmark, models.Scale{Images: *images, Width: *width, Seed: *seed})
	if err != nil {
		return fail(err)
	}
	calib, test := b.Dataset.Split()
	app, err := approxtuner.NewCNNApp(b.Model.Graph, calib.Images, calib.Labels, test.Images, test.Labels)
	if err != nil {
		return fail(err)
	}

	spec := approxtuner.TuneSpec{
		MaxQoSLoss:  *loss,
		MaxIters:    *iters,
		Seed:        *seed,
		DisableFP16: !dev.SupportsKnob(1), // FP32-only curve for the CPU
	}

	logger.Infof("development-time tuning (hardware-independent knobs)...\n")
	devRes, err := app.TuneDevelopmentTime(spec)
	if err != nil {
		return fail(err)
	}
	logger.Infof("shipped curve: %d points\n", devRes.Curve.Len())
	logger.Verbosef("development-time search: %d iterations, %d candidates, α=%.3f\n",
		devRes.Stats.Iterations, devRes.Stats.Candidates, devRes.Stats.Alpha)

	obj := approxtuner.MinimizeTime
	if strings.ToLower(*objective) == "energy" {
		obj = approxtuner.MinimizeEnergy
	}
	logger.Infof("install-time tuning on %s (%s objective, %d edge devices)...\n",
		dev.Name, obj, *edges)
	inst, err := app.TuneInstallTime(devRes, dev, spec, obj, *edges)
	if err != nil {
		return fail(err)
	}
	curve := inst.Curve
	logger.Infof(
		"final curve: %d points; edge profile phase %v, server tuning %v\n",
		curve.Len(),
		inst.Stats.EdgeProfileTime.Round(1e6), inst.Stats.ServerTuneTime.Round(1e6))
	logger.Verbosef("validation: %d configs per edge, %d survived, total %v\n",
		inst.Stats.ValidatePerEdge, inst.Stats.Validated, inst.Stats.Total.Round(1e6))
	if pt, ok := curve.Best(app.BaselineQoS - *loss); ok {
		logger.Infof("best: %s → %.2fx (%s)\n",
			approxtuner.DescribeConfig(pt.Config), pt.Perf, obj)
	}

	data, err := approxtuner.SaveCurve(curve)
	if err != nil {
		return fail(err)
	}
	if *out == "" {
		fmt.Fprintln(stdout, string(data))
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	logger.Infof("curve written to %s\n", *out)
	return 0
}
