// Command approxserve serves a zoo benchmark (or a model compiled from
// JSON) behind the adaptive inference API: a micro-batching HTTP server
// whose runtime tuner picks approximation configurations off a tradeoff
// curve to hold a per-request latency SLO (the paper's §5 run-time
// phase, online).
//
// Usage:
//
//	approxserve -benchmark lenet -addr :8080 -slo 50ms
//	approxserve -benchmark resnet18 -curve curve.json -policy average
//
// The tradeoff curve comes from -curve (an approxtune/installtune
// artifact); without it a built-in approximation ladder is used, with
// modeled speedups — fine for demos and smoke tests, not calibrated.
// With -exec-budget 0 the per-batch execution budget is calibrated at
// startup from measured baseline executions.
//
// The server drains gracefully on SIGINT/SIGTERM: admissions stop
// (503), queued requests finish, then the process exits. -ready-file
// writes the bound address once serving, for scripts to poll.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the command: 0 after a clean drain, 2 on a usage error, 1 on any
// other.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		benchmark  = fs.String("benchmark", "lenet", "zoo benchmark to serve; one of: "+strings.Join(models.Names(), ", "))
		modelJSON  = fs.String("model-json", "", "serve a model compiled from this JSON spec instead of a zoo benchmark")
		width      = fs.Float64("width", 0.25, "channel-width multiplier for zoo benchmarks")
		seed       = fs.Int64("seed", 1, "seed for weights, tuner and executor RNG")
		curvePath  = fs.String("curve", "", "tradeoff-curve JSON (approxtune output); empty builds a built-in ladder")
		policyName = fs.String("policy", "enforce", "runtime policy: enforce | average")
		slo        = fs.Duration("slo", 50*time.Millisecond, "per-request latency SLO")
		execBudget = fs.Duration("exec-budget", 0, "per-batch execution budget for the tuner (0 = calibrate from measured baseline executions)")
		window     = fs.Int("window", serve.DefaultWindow, "tuner control window, in batch executions")
		maxBatch   = fs.Int("max-batch", serve.DefaultMaxBatch, "max items coalesced into one execution")
		maxQueue   = fs.Int("max-queue", serve.DefaultMaxQueue, "admission queue bound, in requests (backpressure beyond)")
		linger     = fs.Duration("linger", serve.DefaultLinger, "longest a batch is held open for requests whose bodies have already reached the server (queued requests join at once; nothing else is waited for)")
		drain      = fs.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-drain bound on shutdown")
		readyFile  = fs.String("ready-file", "", "write the bound address to this file once serving")

		traceSeed  = fs.Int64("trace-seed", 0, "seed for trace IDs and tail-sampling floor decisions (0 = clock-derived)")
		flightPath = fs.String("flight", "", "append flight-recorder dumps (drift latch, health 503) to this file as JSONL")
		slowAfter  = fs.Int("slow-after", 0, "with -slow-factor: inject the slowdown after this many batches")
		slowFactor = fs.Float64("slow-factor", 0, "inject an artificial batch slowdown of this factor (>1) — chaos/smoke hook")
	)
	oc := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "approxserve: %v\n", err)
		return 1
	}
	if err := oc.Activate(stderr); err != nil {
		return fail(err)
	}
	defer oc.Close()
	logger := oc.Log

	policy := core.PolicyEnforce
	switch *policyName {
	case "enforce":
	case "average":
		policy = core.PolicyAverage
	default:
		return fail(fmt.Errorf("unknown policy %q (want enforce or average)", *policyName))
	}

	g, itemDims, program, baselineQoS, err := buildModel(*benchmark, *modelJSON, *width, *seed)
	if err != nil {
		return fail(err)
	}

	var curve *pareto.Curve
	if *curvePath != "" {
		data, err := os.ReadFile(*curvePath)
		if err != nil {
			return fail(err)
		}
		curve, err = pareto.UnmarshalCurve(data)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *curvePath, err))
		}
	} else {
		curve = ladderCurve(g, program, baselineQoS)
		logger.Infof("approxserve: no -curve given; using a built-in %d-point approximation ladder (modeled speedups)\n", curve.Len())
	}

	budget := *execBudget
	if budget <= 0 {
		budget = calibrateBudget(g, itemDims, *maxBatch, *seed)
		logger.Infof("approxserve: calibrated per-batch exec budget: %v (batch of %d)\n", budget, *maxBatch)
	}

	cfg := serve.Config{
		Graph:          g,
		Curve:          curve,
		ItemDims:       itemDims,
		Policy:         policy,
		SLO:            *slo,
		ExecBudget:     budget,
		Window:         *window,
		MaxBatch:       *maxBatch,
		MaxQueue:       *maxQueue,
		Linger:         *linger,
		Seed:           *seed,
		DrainTimeout:   *drain,
		SlowdownFactor: *slowFactor,
		SlowdownAfter:  *slowAfter,
	}
	// Request-scoped tracing: per-request spans, traceparent propagation,
	// tail sampling and histogram exemplars.
	sampler := obs.NewTailSampler(obs.TailSamplerOptions{Seed: *traceSeed})
	cfg.Sampler = sampler
	cfg.Tracer = obs.NewTracer(obs.TracerOptions{
		KeepInMemory: -1, // nothing reads Records(): spans reach the sampler and the flight ring
		IDSeed:       *traceSeed,
		Sinks:        []obs.SpanSink{sampler},
	})
	if *flightPath != "" {
		f, err := os.OpenFile(*flightPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		cfg.FlightLog = f
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return fail(err)
	}
	// SIGQUIT dumps the flight recorder to stderr and keeps serving (the
	// classic "what is this process doing right now" probe); SIGINT and
	// SIGTERM drain gracefully. Caught from before the ready file exists.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	defer signal.Stop(sigc)
	if err := srv.Start(*addr); err != nil {
		_ = srv.Close()
		return fail(err)
	}
	logger.Infof("approxserve: serving %s on %s (SLO %v, window %d, max batch %d, %d curve points, %s kernels)\n",
		program, srv.Addr(), *slo, *window, *maxBatch, curve.Len(), tensorops.KernelTier())
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(srv.Addr()), 0o644); err != nil {
			_ = srv.Close()
			return fail(err)
		}
	}

	var sig os.Signal
	for sig = range sigc {
		if sig != syscall.SIGQUIT {
			break
		}
		logger.Infof("approxserve: SIGQUIT received; dumping flight recorder\n")
		if err := obs.Flight().Dump(stderr); err != nil {
			logger.Infof("approxserve: flight dump: %v\n", err)
		}
	}
	logger.Infof("approxserve: %v received; draining\n", sig)
	if err := srv.Close(); err != nil {
		return fail(fmt.Errorf("drain: %w", err))
	}
	st := srv.Stats()
	logger.Infof("approxserve: drained cleanly: %d served, %d rejected, %d expired, %d batches, %d switches\n",
		st.Served, st.Rejected, st.Expired, st.Batches, st.Switches)
	seen, keptN, evicted := sampler.Stats()
	logger.Infof("approxserve: tail sampler: %d traces seen, %d kept, %d evicted undecided\n", seen, keptN, evicted)
	return 0
}

// buildModel constructs the served graph from a zoo benchmark or a JSON
// model spec, returning the graph, its per-item input dims, a program
// label, and the baseline QoS for the built-in ladder curve.
func buildModel(benchmark, modelJSON string, width float64, seed int64) (*graph.Graph, []int, string, float64, error) {
	if modelJSON != "" {
		data, err := os.ReadFile(modelJSON)
		if err != nil {
			return nil, nil, "", 0, err
		}
		m, err := models.FromJSON(data)
		if err != nil {
			return nil, nil, "", 0, err
		}
		return m.Graph, []int{m.C, m.H, m.W}, "model-json", 100, nil
	}
	b, err := models.Build(benchmark, models.Scale{Width: width, Seed: seed})
	if err != nil {
		return nil, nil, "", 0, err
	}
	m := b.Model
	return m.Graph, []int{m.C, m.H, m.W}, benchmark, b.BaselineAcc, nil
}

// ladderCurve builds a small built-in tradeoff curve when no calibrated
// curve is shipped: exact execution, FP16 everywhere, and two
// progressively more aggressive sampling/perforation rungs. Speedups
// are modeled from the knobs' cost factors (1/mean rc across the
// graph's approximable ops); QoS values step down synthetically. Good
// enough for demos and smoke tests — production deployments should
// ship an approxtune curve and recalibrate on drift.
func ladderCurve(g *graph.Graph, program string, baselineQoS float64) *pareto.Curve {
	ops := g.ApproxOps()
	classes := g.OpClasses()

	// rung builds a config by picking, per op, the hardware-independent
	// knob of the op's class whose compute-reduction factor is closest
	// to wantRC (rc >= 1; rc=2.0 means half the MACs, so a modeled ~2x
	// speedup). Perf is the mean reduction factor across ops.
	rung := func(wantRC float64) (approx.Config, float64) {
		cfg := approx.Config{}
		var rcSum float64
		for i, op := range ops {
			best := approx.KnobFP16
			bestGap := gap(approx.KnobFP16, wantRC)
			for _, id := range approx.KnobsFor(classes[i], false) {
				if k := approx.MustLookup(id); k.IsBaseline() {
					continue
				}
				if d := gap(id, wantRC); d < bestGap {
					best, bestGap = id, d
				}
			}
			cfg[op] = best
			rc, _ := approx.CostFactors(best)
			rcSum += rc
		}
		if len(ops) == 0 {
			return nil, 1
		}
		return cfg, rcSum / float64(len(ops))
	}

	points := []pareto.Point{{QoS: baselineQoS, Perf: 1, Config: nil}}
	for i, want := range []float64{1.33, 1.5, 2.0} {
		cfg, perf := rung(want)
		if cfg == nil {
			break
		}
		points = append(points, pareto.Point{
			QoS:    baselineQoS - 0.5*float64(i+1),
			Perf:   perf,
			Config: cfg,
		})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Perf < points[j].Perf })
	return pareto.NewCurve(program, baselineQoS, points)
}

func gap(id approx.KnobID, wantRC float64) float64 {
	rc, _ := approx.CostFactors(id)
	if rc > wantRC {
		return rc - wantRC
	}
	return wantRC - rc
}

// calibrateBudget measures exact baseline executions of a full batch
// and returns a per-batch budget with 20% headroom, so the shipped (or
// built-in) curve's Perf=1 point sits just inside the target and the
// drift detectors judge configurations against a measured baseline
// rather than a guessed one.
func calibrateBudget(g *graph.Graph, itemDims []int, maxBatch int, seed int64) time.Duration {
	dims := append([]int{maxBatch}, itemDims...)
	in := tensor.New(dims...)
	tensor.NewRNG(seed+2).FillNormal(in, 0, 1)
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		g.Execute(in, nil, graph.ExecOptions{})
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	budget := best + best/5
	if budget <= 0 {
		budget = time.Millisecond
	}
	return budget
}
