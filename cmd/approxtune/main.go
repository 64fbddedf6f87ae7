// Command approxtune runs ApproxTuner's development-time phase on one of
// the built-in CNN benchmarks and writes the shipped tradeoff curve as
// JSON — the artifact the install-time phase consumes.
//
// Usage:
//
//	approxtune -benchmark resnet18 -max-qos-loss 2 -model pi1 -o curve.json
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
	"slices"
	"strings"

	approxtuner "repro"
	"repro/internal/models"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 2 on a usage error (an unknown flag,
// benchmark or model), 1 on any other.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxtune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark = fs.String("benchmark", "lenet", "one of: "+strings.Join(models.Names(), ", "))
		loss      = fs.Float64("max-qos-loss", 1.0, "acceptable accuracy loss in percentage points")
		model     = fs.String("model", "pi2", "QoS prediction model: pi1, pi2, or empirical")
		images    = fs.Int("images", 64, "dataset size (split 50/50 calibration/test)")
		width     = fs.Float64("width", 0.25, "channel-width multiplier")
		iters     = fs.Int("iters", 4000, "search iteration cap")
		out       = fs.String("o", "", "write the shipped curve JSON to this file (default stdout)")
		seed      = fs.Int64("seed", 1, "seed")
	)
	oc := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "approxtune: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "approxtune: %v\n", err)
		return 1
	}

	spec := approxtuner.TuneSpec{
		MaxQoSLoss: *loss,
		MaxIters:   *iters,
		Seed:       *seed,
	}
	switch strings.ToLower(*model) {
	case "pi1", "π1":
		spec.Model = approxtuner.Pi1
	case "pi2", "π2", "":
		spec.Model = approxtuner.Pi2
	case "empirical":
		spec.Empirical = true
	default:
		return usage("unknown model %q", *model)
	}
	if !slices.Contains(models.Names(), *benchmark) {
		return usage("unknown benchmark %q", *benchmark)
	}

	if err := oc.Activate(stderr); err != nil {
		return fail(err)
	}
	defer oc.Close()
	logger := oc.Log

	b, err := models.Build(*benchmark, models.Scale{Images: *images, Width: *width, Seed: *seed})
	if err != nil {
		return fail(err)
	}
	calib, test := b.Dataset.Split()
	app, err := approxtuner.NewCNNApp(b.Model.Graph, calib.Images, calib.Labels, test.Images, test.Labels)
	if err != nil {
		return fail(err)
	}
	logger.Infof("benchmark %s: %d layers, baseline accuracy %.2f%%\n",
		*benchmark, b.Model.Graph.LayerCount(), app.BaselineQoS)

	res, err := app.TuneDevelopmentTime(spec)
	if err != nil {
		return fail(err)
	}
	st := res.Stats
	logger.Infof("tuning done: %d iterations, %d candidates, %d validated, α=%.3f, total %v\n",
		st.Iterations, st.Candidates, st.Validated, st.Alpha, st.Total.Round(1e6))
	logger.Verbosef("phase times: profile %v, calibrate %v, search %v, validate %v\n",
		st.ProfileTime.Round(1e6), st.CalibrateTime.Round(1e6),
		st.SearchTime.Round(1e6), st.ValidateTime.Round(1e6))
	logger.Infof("curve: %d points; best config at threshold: %s\n",
		res.Curve.Len(), bestDescription(app, res))

	data, err := approxtuner.SaveCurve(res.Curve)
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

func bestDescription(app *approxtuner.App, res *approxtuner.Result) string {
	pt, ok := res.Curve.Best(res.Curve.BaselineQoS - 1e9)
	if !ok {
		return "(empty curve)"
	}
	return fmt.Sprintf("%s (predicted %.2fx, calib QoS %.2f, test QoS %.2f)",
		approxtuner.DescribeConfig(pt.Config), pt.Perf, pt.QoS, app.Evaluate(pt.Config))
}
