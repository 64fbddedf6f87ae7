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
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/tensorops"
)

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiments, or 'all': table1, fig2, fp16, cpu, table3, firstlayer, fig3, table4, curvesize, fig4, fig5, fig6, fig7, pruning, ablations")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all ten)")
		images     = flag.Int("images", 0, "dataset size per benchmark (default 64)")
		width      = flag.Float64("width", 0, "channel-width multiplier (default 0.25)")
		heavyWidth = flag.Float64("heavy-width", 0, "width for resnet50/vgg16_imagenet (default 0.125)")
		inSize     = flag.Int("imagenet-size", 0, "mini-ImageNet resolution (default 48)")
		maxIters   = flag.Int("iters", 0, "predictive search iteration cap (default 4000)")
		empIters   = flag.Int("emp-iters", 0, "empirical search iteration cap (default 300)")
		seed       = flag.Int64("seed", 0, "experiment seed (default 1)")
	)
	flag.Parse()

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
	ablations := map[string]bool{
		"predictor_accuracy": true, "alpha": true, "epsilon": true,
		"technique": true, "offset": true, "policies": true,
	}

	want := map[string]bool{}
	runAblations := false
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		switch e {
		case "all":
			for _, r := range all {
				want[r.name] = true
			}
		case "ablations":
			runAblations = true
		case "":
		default:
			want[e] = true
		}
	}
	if runAblations {
		for name := range ablations {
			want[name] = true
		}
	}

	// Times below depend on which kernels ran; two hosts' numbers are not
	// comparable without this line.
	fmt.Printf("benchtab: %s/%s, GOMAXPROCS %d, %s kernels\n\n", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), tensorops.KernelTier())
	ran := 0
	for _, r := range all {
		if !want[r.name] {
			continue
		}
		start := time.Now()
		report := r.run()
		fmt.Println(report.String())
		fmt.Printf("  [%s completed in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: no experiment matched %q\n", *exps)
		os.Exit(2)
	}
}
