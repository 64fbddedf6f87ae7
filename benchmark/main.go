// Command benchmark is this repository's benchmark: four workloads over
// the three paths users feel — one graph.Execute, one tuning run, one
// /v1/infer under load — measured end to end, and layer by layer from
// outside the program (timed calls into public functions, a wrapper around
// core.Program, and what the program already returns). README.md has the
// tables; BENCHMARK.json names the metrics, bounds and workloads.
//
//	go run ./benchmark --workload exec_fresh --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The exit code is non-zero when any operation failed or any
// output did not verify.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// benchWidth is the channel-width multiplier of every zoo model here.
	benchWidth = 0.25
	// refSeconds is BENCHMARK.json's run_seconds: the counts in the
	// workload files are sized to measure for about this long on the
	// reference host, and --seconds scales them linearly.
	refSeconds = 20
	// expectedSeed is the seed expected.json was generated with.
	expectedSeed = 1
	// smokeFrac is the -smoke scale: every workload in seconds.
	smokeFrac = 1.0 / 20
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed int64
	frac float64 // scale on every count
	// refScale says the counts are exactly the reference ones, the only
	// scale whose tuned curves expected.json pins.
	refScale bool
	trace    bool
	outDir   string
	// host is the run's host-speed clock; every reported time goes
	// through it (hostclock.go).
	host *hostClock
	// smoke also drops the repeated set-ups and the per-cell call floor:
	// the smoke scale checks that everything runs, not how fast.
	smoke bool
	// writeExpected makes the run record its digests instead of checking
	// them.
	writeExpected bool
}

// workloads in the order -workload all runs them.
var workloads = []struct {
	name string
	run  func(rc runConfig, res *results) error
}{
	{"exec_fresh", runExecFresh},
	{"tune_cached", runTuneCached},
	{"serve_small_closed", runServeSmallClosed},
	{"serve_heavy_open", runServeHeavyOpen},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: exec_fresh, tune_cached, serve_small_closed, serve_heavy_open, or all")
		seed     = flag.Int64("seed", expectedSeed, "seed for every generated input and schedule")
		seconds  = flag.Int("seconds", refSeconds, "measurement length the counts are scaled to")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file under -out")
		smoke    = flag.Bool("smoke", false, "about 1/20 of the counts: checks that everything runs, not how fast")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and span files")
		writeExp = flag.Bool("write-expected", false, "regenerate benchmark/expected.json for this workload (seed 1 only)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, frac: float64(*seconds) / refSeconds, refScale: *seconds == refSeconds && !*smoke, trace: *trace == 1, outDir: *outDir, smoke: *smoke, writeExpected: *writeExp}
	if *smoke {
		rc.frac *= smokeFrac
	}
	if rc.writeExpected && rc.seed != expectedSeed {
		fmt.Fprintf(os.Stderr, "benchmark: -write-expected needs -seed %d\n", expectedSeed)
		os.Exit(2)
	}
	ok := true
	ran := false
	for _, w := range workloads {
		if *workload != w.name && *workload != "all" {
			continue
		}
		ran = true
		if err := runOne(w.name, w.run, rc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			ok = false
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what lands under -out: the result line plus where and how
// it was measured, and every value the run produced.
type resultFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Scale    float64            `json:"scale"`
	Env      envRecord          `json:"env"`
	WallS    float64            `json:"wall_s"`
	Counts   map[string]int     `json:"counts"`
	Notes    []string           `json:"notes,omitempty"`
	Result   resultLine         `json:"result"`
	All      map[string]float64 `json:"all_values"`
}

// runOne runs a workload, prints its table and result line, and writes
// the result file. It returns an error when the run is not clean.
func runOne(name string, run func(runConfig, *results) error, rc runConfig) error {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	res := newResults()
	rc.host = startHostClock()
	runErr := run(rc, res)
	rc.host.stopAndWait()
	wall := time.Since(start)
	if runErr != nil {
		return runErr
	}
	finish(rc, res, start)
	if res.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	metrics, err := res.emit(rc.trace)
	if err != nil {
		return err
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
	env := readEnv()

	fmt.Printf("# %s seed=%d trace=%v scale=%.3g wall=%.1fs\n", name, rc.seed, rc.trace, rc.frac, wall.Seconds())
	fmt.Printf("# %s/%s %q nproc=%d GOMAXPROCS=%d %s git=%s\n", env.GOOS, env.GOARCH, env.CPU, env.NProc, env.GOMAXPROCS, env.GoVersion, env.GitSHA)
	for _, n := range res.sortedNames() {
		fmt.Printf("%-44s %14.6g %s\n", n, res.values[n], units[n])
	}
	for _, n := range res.notes {
		fmt.Printf("# note: %s\n", n)
	}
	verdict := "correct"
	if !line.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("# verdict: %s (%d attempted, %d failed)\n", verdict, res.attempted, res.failed)

	file := resultFile{Workload: name, Seed: rc.seed, Trace: rc.trace, Scale: rc.frac, Env: env,
		WallS: wall.Seconds(), Counts: res.counts, Notes: res.notes, Result: line, All: res.values}
	if err := writeJSON(filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, rc.seed, btoi(rc.trace))), file); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed or did not verify", res.failed, res.attempted)
	}
	return nil
}

// finish adds the metrics every workload reports the same way; start is
// when the workload began.
func finish(rc runConfig, res *results, start time.Time) {
	res.set("host.slowness", rc.host.factor(start, time.Now()))
	res.set("setup_s", median(res.setupS))
	res.set("peak_rss_mb", peakRSSMB())
	res.set("fail_share", ratio(float64(res.failed), float64(res.attempted)))
}

// setups is how many times a workload sets up, so that setup_s is a
// median.
func (rc runConfig) setups() int {
	if rc.smoke {
		return 1
	}
	return 5
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nproc is the client and connection count of the serving workloads.
func nproc() int { return runtime.GOMAXPROCS(0) }
