// Command loadgen drives load against an approxserve endpoint and
// reports latency quantiles and SLO attainment.
//
// Two arrival models:
//
//	loadgen -url http://127.0.0.1:8080 -n 200 -c 8            # closed loop
//	loadgen -url http://127.0.0.1:8080 -n 500 -open -rps 200  # open-loop Poisson
//
// The closed loop keeps -c workers each waiting for their previous
// response, so offered load adapts to the server. The open loop fires
// requests at seeded Poisson arrivals of rate -rps regardless of
// completions — the arrival process does not slow down when the server
// does, which is what exposes queue buildup, backpressure (429) and
// SLO erosion under overload.
//
// Runs are seeded and reproducible: the same -seed issues the same
// input tensors and the same arrival gaps. -json writes the report for
// machine consumption; -max-errors N makes the process exit non-zero
// when transport failures exceed N (backpressure rejections and
// deadline expiries are accounted separately and do not count).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 2 on a usage error (an unknown flag or
// a -url that is not an http or https URL), 1 on any other — including
// more failed requests than -max-errors allows.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target    = fs.String("url", "http://127.0.0.1:8080", "approxserve base URL")
		open      = fs.Bool("open", false, "open-loop Poisson arrivals instead of the closed loop")
		conc      = fs.Int("c", 4, "closed-loop concurrency (workers)")
		rps       = fs.Float64("rps", 100, "open-loop arrival rate, requests/second")
		n         = fs.Int("n", 100, "total requests")
		items     = fs.Int("items", 1, "items per request (batch axis)")
		seed      = fs.Int64("seed", 1, "seed for inputs and arrival gaps")
		slo       = fs.Duration("slo", 0, "SLO threshold for the attainment report (0 = use the server's)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		jsonOut   = fs.String("json", "", "write the report as JSON to this file (\"-\" for stdout)")
		maxErrors = fs.Int("max-errors", -1, "exit non-zero when failed requests exceed this (-1 disables the gate)")
		slowest   = fs.Int("slowest", 3, "report trace IDs of this many slowest requests (traceparent response header)")
		verify    = fs.String("verify-flight", "", "after the run, fetch /debug/flight and require this event plus a span from a reported trace (smoke-test gate)")
	)
	oc := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if u, err := url.Parse(*target); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		fmt.Fprintf(stderr, "loadgen: -url %q is not an http or https URL\n", *target)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	if err := oc.Activate(stderr); err != nil {
		return fail(err)
	}
	defer oc.Close()

	rep, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		URL:             *target,
		OpenLoop:        *open,
		Concurrency:     *conc,
		RPS:             *rps,
		Requests:        *n,
		ItemsPerRequest: *items,
		Seed:            *seed,
		SLO:             *slo,
		Timeout:         *timeout,
		SlowestK:        *slowest,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, rep)

	if *verify != "" {
		client := &http.Client{Timeout: *timeout}
		if err := serve.VerifyFlight(context.Background(), client, *target, *verify, rep.TraceIDs()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "flight verified: event %q present and dump links a reported trace\n", *verify)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if *maxErrors >= 0 && rep.Failed > *maxErrors {
		return fail(fmt.Errorf("%d failed requests exceed -max-errors %d", rep.Failed, *maxErrors))
	}
	return 0
}
