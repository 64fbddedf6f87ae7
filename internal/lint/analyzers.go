package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// AllAnalyzers returns the project analyzer suite in reporting order.
func AllAnalyzers() []Analyzer {
	return []Analyzer{
		DetRand{},
		SpanEnd{},
		HTTPDefault{},
		MetricName{},
		PoolAudit{},
	}
}

// AnalyzerByName returns the analyzer with the given name (nil if none).
func AnalyzerByName(name string) Analyzer {
	for _, a := range AllAnalyzers() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// moduleOf recovers the module path from an analysis-unit path
// ("repro/internal/x" → "repro").
func moduleOf(pkgPath string) string {
	first, _, _ := strings.Cut(pkgPath, "/")
	return strings.TrimSuffix(first, "_test")
}

// ---------------------------------------------------------------------------
// detrand: reproducibility discipline. Every random stream in the system
// must derive from an explicit seed through tensor.RNG; the only file
// allowed to import math/rand is the RNG wrapper itself, and the
// package-level convenience functions (rand.Float64, rand.Intn, ...) —
// which share unseeded (or at best process-global) state — are banned
// everywhere, including inside the wrapper.

// DetRand flags math/rand imports outside the tensor RNG wrapper and any
// use of math/rand's package-level (global-state) functions.
type DetRand struct{}

func (DetRand) Name() string { return "detrand" }
func (DetRand) Doc() string {
	return "math/rand only via the seeded tensor.RNG wrapper; no package-level rand functions"
}

// detrandAllowed are the files permitted to import math/rand.
var detrandAllowed = []string{"internal/tensor/rng.go"}

// randGlobalFuncs are the math/rand package-level functions backed by the
// global source.
var randGlobalFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

func (DetRand) Run(pass *Pass) {
	for i, f := range pass.Pkg.Files {
		filename := pass.Pkg.Filenames[i]
		var randNames []string // local names the file binds math/rand to
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "math/rand" && path != "math/rand/v2") {
				continue
			}
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			randNames = append(randNames, name)
			if !fileAllowed(filename, detrandAllowed) {
				pass.Reportf(imp.Pos(),
					"import %q outside internal/tensor/rng.go breaks seeded-RNG determinism; use *tensor.RNG", path)
			}
		}
		if len(randNames) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !randGlobalFuncs[sel.Sel.Name] {
				return true
			}
			for _, rn := range randNames {
				if id.Name == rn && isPackageRef(pass, id) {
					pass.Reportf(sel.Pos(),
						"rand.%s uses math/rand global state; derive values from a seeded *tensor.RNG", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// fileAllowed reports whether filename ends with one of the allowed
// slash-separated suffixes.
func fileAllowed(filename string, allowed []string) bool {
	f := strings.ReplaceAll(filename, "\\", "/")
	for _, a := range allowed {
		if strings.HasSuffix(f, a) {
			return true
		}
	}
	return false
}

// isPackageRef reports whether id resolves to a package name (not a local
// variable that happens to be called "rand").
func isPackageRef(pass *Pass, id *ast.Ident) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return true // unresolved: assume package to stay conservative
	}
	_, ok := obj.(*types.PkgName)
	return ok
}
