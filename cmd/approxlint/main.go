// Command approxlint runs the project's static-analysis suite: three
// go/ast+go/types analyzers over the source tree — seeded-RNG determinism,
// HTTP client defaults and metric naming — plus, with -ir, the domain-level validators over the system's data: the
// approximation-knob registry against the modeled devices and the dataflow
// graphs of the model zoo.
//
// Usage:
//
//	approxlint [-ir] [-list] [-only analyzer] [packages]
//
// Packages default to ./... resolved from the module root. The exit code
// is 1 when any finding is reported and 2 on a usage or load error. The
// source suite also runs inside `go test` (TestRepositoryIsLintClean);
// `make lint` runs the -ir mode, which has no test twin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/lint"
	"repro/internal/models"
	"repro/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	irMode := fs.Bool("ir", false, "validate the knob registry and model-zoo graphs instead of source code")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	only := fs.String("only", "", "comma-free single analyzer name to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: approxlint [-ir] [-list] [-only analyzer] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.AllAnalyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *irMode {
		return runIR(stdout, stderr)
	}
	return runSource(fs.Args(), *only, stdout, stderr)
}

// runSource loads the requested packages and applies the analyzer suite.
func runSource(patterns []string, only string, stdout, stderr io.Writer) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "approxlint:", err)
		return 2
	}
	pkgs, err := lint.Load(wd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "approxlint:", err)
		return 2
	}
	failed := 0
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "approxlint: %s: type error: %v\n", p.Path, terr)
			failed = 2
		}
	}
	runner := lint.NewRunner()
	if only != "" {
		a := lint.AnalyzerByName(only)
		if a == nil {
			fmt.Fprintf(stderr, "approxlint: unknown analyzer %q (try -list)\n", only)
			return 2
		}
		runner.Analyzers = []lint.Analyzer{a}
	}
	diags := runner.Run(pkgs)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "approxlint: %d finding(s)\n", len(diags))
		return 1
	}
	return failed
}

// runIR validates the domain data: knob registry completeness against the
// TX2 device models, knob-set/curve invariants, and deep structural +
// shape validation of every model-zoo graph (built at reduced width so the
// check stays fast; shape inference touches no tensor data).
func runIR(stdout, stderr io.Writer) int {
	bad := 0
	report := func(errs []error) {
		for _, e := range errs {
			fmt.Fprintln(stdout, e)
			bad++
		}
	}

	devs := []*device.Device{device.NewTX2GPU(), device.NewTX2CPU()}
	report(core.CheckKnobRegistry(devs...))

	type zooEntry struct {
		g  *graph.Graph
		in tensor.Shape
	}
	const seed, width = 1, 0.25
	zoo := []zooEntry{
		{models.LeNet(seed, width).Graph, tensor.NewShape(1, 1, 28, 28)},
		{models.AlexNetCIFAR(seed, width).Graph, tensor.NewShape(1, 3, 32, 32)},
		{models.AlexNet2(seed, width).Graph, tensor.NewShape(1, 3, 32, 32)},
		{models.AlexNetImageNet(seed, width, 64, 100).Graph, tensor.NewShape(1, 3, 64, 64)},
		{models.VGG16("vgg16", seed, width, 32, 10).Graph, tensor.NewShape(1, 3, 32, 32)},
		{models.ResNet18(seed, width).Graph, tensor.NewShape(1, 3, 32, 32)},
		{models.ResNet50(seed, width, 32, 10).Graph, tensor.NewShape(1, 3, 32, 32)},
		{models.MobileNet(seed, width).Graph, tensor.NewShape(1, 3, 32, 32)},
	}
	for _, z := range zoo {
		report(z.g.ValidateDeep(z.in))
	}

	// The default knob policies must only emit knobs the registry resolves.
	for _, class := range []approx.OpClass{approx.OpConv, approx.OpMatMul, approx.OpReduce, approx.OpOther} {
		for _, id := range approx.KnobsFor(class, true) {
			if _, ok := approx.Lookup(id); !ok {
				fmt.Fprintf(stdout, "knob policy for %s emits unregistered id %d\n", class, id)
				bad++
			}
		}
	}

	if bad > 0 {
		fmt.Fprintf(stderr, "approxlint -ir: %d finding(s)\n", bad)
		return 1
	}
	fmt.Fprintf(stdout, "approxlint -ir: knob registry (%d knobs, %d devices) and %d model graphs validate clean\n",
		len(approx.All()), len(devs), len(zoo))
	return 0
}
