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
// With -http the distributed phase runs over a loopback HTTP
// coordinator and a real edge-client fleet (the internal/distrib
// transport) instead of the in-process simulation; -lease-ttl,
// -req-timeout and -retries tune its fault-tolerance knobs.
//
// Observability: -trace out.jsonl exports a JSONL span trace of the run,
// -metrics-addr :8090 serves live /metrics (OpenMetrics), /healthz and
// /debug/pprof, -telemetry prints an end-of-run metric summary table,
// and -v / -q adjust progress verbosity. In -http mode the coordinator
// itself also serves /metrics, /healthz and the aggregated fleet
// telemetry at GET /v1/stats, which is logged as a fleet summary at the
// end of the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	approxtuner "repro"
	"repro/internal/distrib"
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

		httpMode   = fs.Bool("http", false, "run the distributed phase over a loopback HTTP coordinator + edge fleet")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "HTTP mode: edge liveness lease before work is reassigned")
		reqTimeout = fs.Duration("req-timeout", 10*time.Second, "HTTP mode: per-request timeout on the edge client")
		retries    = fs.Int("retries", 4, "HTTP mode: retries per request (exponential backoff)")
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
	var curve *approxtuner.Curve
	if *httpMode {
		if devRes.Profiles == nil {
			return fail(errors.New("-http needs development-time profiles (predictive path)"))
		}
		opts := app.InstallOptionsFor(dev, spec, obj, *edges)
		opts.LeaseTTL = *leaseTTL
		opts.RequestTimeout = *reqTimeout
		opts.MaxRetries = *retries
		logger.Infof("install-time tuning on %s over loopback HTTP (%s objective, %d edges, lease %v)...\n",
			dev.Name, obj, *edges, *leaseTTL)
		curve, err = runDistributed(app, devRes, dev, opts, logger)
		if err != nil {
			return fail(err)
		}
		logger.Infof("final curve: %d points\n", curve.Len())
	} else {
		logger.Infof("install-time tuning on %s (%s objective, %d edge devices)...\n",
			dev.Name, obj, *edges)
		inst, err := app.TuneInstallTime(devRes, dev, spec, obj, *edges)
		if err != nil {
			return fail(err)
		}
		curve = inst.Curve
		logger.Infof(
			"final curve: %d points; edge profile phase %v, server tuning %v\n",
			inst.Curve.Len(),
			inst.Stats.EdgeProfileTime.Round(1e6), inst.Stats.ServerTuneTime.Round(1e6))
		logger.Verbosef("validation: %d configs per edge, %d survived, total %v\n",
			inst.Stats.ValidatePerEdge, inst.Stats.Validated, inst.Stats.Total.Round(1e6))
	}
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

// runDistributed executes the install-time distributed phase over a real
// loopback HTTP transport: a coordinator served on 127.0.0.1 and one edge
// client goroutine per fleet member, all sharing the same options (and
// therefore the same lease/retry discipline the flags configured).
func runDistributed(app *approxtuner.App, devRes *approxtuner.Result, dev *approxtuner.Device, opts approxtuner.InstallOptions, logger *obs.Logger) (*approxtuner.Curve, error) {
	coord, err := distrib.NewCoordinator(app.Program(), devRes.Profiles, opts)
	if err != nil {
		return nil, err
	}
	srv, err := obs.Listen("127.0.0.1:0", coord.Handler())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	baseURL := "http://" + srv.Addr

	ctx := context.Background()
	errs := make([]error, opts.NEdge)
	var wg sync.WaitGroup
	for i := 0; i < opts.NEdge; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := distrib.NewEdge(i, baseURL, app.Program(), dev, opts)
			_, errs[i] = e.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	final, ok := coord.FinalCurve()
	if !ok {
		return nil, fmt.Errorf("coordinator did not produce a final curve")
	}
	logFleetStats(baseURL, logger)
	return final, nil
}

// logFleetStats fetches the coordinator's aggregated fleet telemetry
// (GET /v1/stats) before the loopback server shuts down and logs a
// per-edge and fleet-total summary. Telemetry display is best-effort:
// a failed fetch only logs a warning.
func logFleetStats(baseURL string, logger *obs.Logger) {
	var fs distrib.FleetStats
	cl := &http.Client{Timeout: 5 * time.Second}
	if err := obs.GetJSON(context.Background(), cl, baseURL+"/v1/stats", &fs); err != nil {
		logger.Errorf("fleet stats: %v\n", err)
		return
	}
	logger.Infof("fleet telemetry: %d edges, %d requests (%d retries, %d timeouts), latency p50=%.4gs p99=%.4gs max=%.4gs\n",
		len(fs.Edges), fs.TotalRequests, fs.TotalRetries, fs.TotalTimeouts,
		fs.EdgeLatency.P50, fs.EdgeLatency.P99, fs.EdgeLatency.Max)
	ids := make([]string, 0, len(fs.Edges))
	for id := range fs.Edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := fs.Edges[id]
		logger.Verbosef("  edge %s: %d requests, %d retries, %d timeouts, p50=%.4gs\n",
			id, e.Requests, e.Retries, e.Timeouts, e.Latency.P50)
	}
}
