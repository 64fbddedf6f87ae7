// Command runtimedemo replays the paper's runtime-adaptation experiment
// (§7.5, Fig. 6) for a built-in benchmark: the GPU steps down its DVFS
// ladder while the runtime tuner swaps configurations off the shipped
// tradeoff curve to hold the original batch time, trading accuracy.
//
// Usage:
//
//	runtimedemo -benchmark resnet18
//
// With -inject-slowdown N the second half of the ladder additionally
// runs N× slower than the shipped curve predicts (an unmodeled fault);
// the end-of-run health report shows the drift detectors catching it.
//
// Observability: -trace out.jsonl exports a JSONL span trace of the run,
// -metrics-addr :8090 serves live /metrics (OpenMetrics), /healthz and
// /debug/pprof, and -telemetry prints an end-of-run metric summary table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 2 on a usage error (an unknown flag or
// benchmark), 1 on any other.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runtimedemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark = fs.String("benchmark", "resnet18", "one of: "+strings.Join(models.Names(), ", "))
		images    = fs.Int("images", 64, "dataset size")
		width     = fs.Float64("width", 0.25, "channel-width multiplier")
		seed      = fs.Int64("seed", 1, "seed")
		slowdown  = fs.Float64("inject-slowdown", 1, "inject an unmodeled execution-time slowdown of this factor over the second half of the DVFS ladder (1 = none)")
	)
	oc := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(models.Names(), *benchmark) {
		fmt.Fprintf(stderr, "runtimedemo: unknown benchmark %q\n", *benchmark)
		return 2
	}
	if err := oc.Activate(stderr); err != nil {
		fmt.Fprintf(stderr, "runtimedemo: %v\n", err)
		return 1
	}
	defer oc.Close()

	s := bench.NewSession(bench.Config{
		Benchmarks:    []string{*benchmark},
		Images:        *images,
		Width:         *width,
		Seed:          *seed,
		FaultSlowdown: *slowdown,
	})
	rows, health := bench.RunFig6Health(s, *benchmark)
	fmt.Fprintf(stdout, "%-10s %-12s %-12s %-10s %-8s\n", "freq(MHz)", "base-time", "adapt-time", "accuracy", "switches")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10.0f %-12.2f %-12.2f %-10.2f %-8d\n",
			r.FreqMHz, r.BaselineNormTime, r.AdaptedNormTime, r.AdaptedAccuracy, r.ConfigSwitches)
	}
	last := rows[len(rows)-1]
	fmt.Fprintf(stdout, "\nat %.0f MHz: baseline would slow %.2fx; adaptation holds %.2fx at %.2f pp accuracy cost\n",
		last.FreqMHz, last.BaselineNormTime, last.AdaptedNormTime,
		last.BaselineAccuracy-last.AdaptedAccuracy)

	fmt.Fprintf(stdout, "\n%s", health)
	if health.RecalibrationNeeded {
		fmt.Fprintf(stdout, "the shipped curve no longer matches observed behavior; re-run install-time calibration\n")
	}
	return 0
}
