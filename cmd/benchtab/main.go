// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§6–7) plus the ablation studies listed in
// DESIGN.md. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured numbers.
//
// Usage:
//
//	benchtab -exp all
//	benchtab -exp table1,fig2,fig3 -benchmarks lenet,alexnet2 -images 48
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/tensorops"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 2 on a usage error (an unknown flag,
// benchmark or experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps       = fs.String("exp", "all", "comma-separated experiments, or 'all': table1, fig2, fp16, cpu, table3, firstlayer, fig3, table4, curvesize, fig4, fig5, fig6, fig7, pruning, ablations")
		benchmarks = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all ten)")
		images     = fs.Int("images", 0, "dataset size per benchmark (default 64)")
		width      = fs.Float64("width", 0, "channel-width multiplier (default 0.25)")
		heavyWidth = fs.Float64("heavy-width", 0, "width for resnet50/vgg16_imagenet (default 0.125)")
		inSize     = fs.Int("imagenet-size", 0, "mini-ImageNet resolution (default 48)")
		maxIters   = fs.Int("iters", 0, "predictive search iteration cap (default 4000)")
		empIters   = fs.Int("emp-iters", 0, "empirical search iteration cap (default 300)")
		seed       = fs.Int64("seed", 0, "experiment seed (default 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchtab: "+format+"\n", a...)
		return 2
	}

	cfg := bench.Config{
		Images:       *images,
		Width:        *width,
		HeavyWidth:   *heavyWidth,
		ImageNetSize: *inSize,
		MaxIters:     *maxIters,
		EmpIters:     *empIters,
		Seed:         *seed,
	}
	if *benchmarks != "" {
		cfg.Benchmarks = strings.Split(*benchmarks, ",")
		for _, b := range cfg.Benchmarks {
			if !slices.Contains(models.Names(), b) {
				return usage("unknown benchmark %q", b)
			}
		}
	}
	s := bench.NewSession(cfg)

	type runner struct {
		name string
		run  func() *bench.Report
	}
	single := func(f func(*bench.Session) *bench.Report) func() *bench.Report {
		return func() *bench.Report { return f(s) }
	}
	smallBench := "alexnet2"
	if len(cfg.Benchmarks) > 0 {
		smallBench = cfg.Benchmarks[0]
	}
	all := []runner{
		{"table1", single(bench.Table1)},
		{"fig2", single(bench.Fig2)},
		{"fp16", single(bench.FP16Only)},
		{"cpu", single(bench.CPUSpeedup)},
		{"table3", single(bench.Table3)},
		{"firstlayer", single(bench.FirstLayerStudy)},
		{"fig3", single(bench.Fig3)},
		{"table4", single(bench.Table4)},
		{"curvesize", single(bench.CurveSize)},
		{"fig4", single(bench.Fig4)},
		{"fig5", single(bench.Fig5)},
		{"fig6", single(bench.Fig6)},
		{"fig7", single(bench.Fig7)},
		{"pruning", single(bench.Pruning)},
		{"predictor_accuracy", func() *bench.Report { return bench.PredictorAccuracy(s, smallBench, 24) }},
		{"alpha", func() *bench.Report { return bench.AlphaCalibration(s, smallBench, 24) }},
		{"epsilon", func() *bench.Report { return bench.EpsilonSweep(s, smallBench) }},
		{"technique", func() *bench.Report { return bench.TechniqueAblation(s, smallBench) }},
		{"offset", func() *bench.Report { return bench.OffsetAblation(s, smallBench) }},
		{"policies", func() *bench.Report { return bench.RuntimePolicies(s, smallBench) }},
	}
	ablations := []string{"predictor_accuracy", "alpha", "epsilon", "technique", "offset", "policies"}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		switch e = strings.TrimSpace(e); e {
		case "":
		case "all":
			for _, r := range all {
				want[r.name] = true
			}
		case "ablations":
			for _, name := range ablations {
				want[name] = true
			}
		default:
			if !slices.ContainsFunc(all, func(r runner) bool { return r.name == e }) {
				return usage("unknown experiment %q", e)
			}
			want[e] = true
		}
	}
	if len(want) == 0 {
		return usage("no experiment matched %q", *exps)
	}

	// Times below depend on which kernels ran; two hosts' numbers are not
	// comparable without this line.
	fmt.Fprintf(stdout, "benchtab: %s/%s, GOMAXPROCS %d, %s kernels\n\n", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), tensorops.KernelTier())
	for _, r := range all {
		if !want[r.name] {
			continue
		}
		start := time.Now()
		report := r.run()
		fmt.Fprintln(stdout, report.String())
		fmt.Fprintf(stdout, "  [%s completed in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
