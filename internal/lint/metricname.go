package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// metricname: metric-inventory discipline. Every obs metric is addressed
// by its registry name — the Prometheus exposition, the expvar JSON, the
// telemetry summary table and the dashboards scraping them all key on it.
// A name built at run time (fmt.Sprintf, a variable) cannot be found by
// grep, explodes series cardinality, and silently shadows or misses the
// # TYPE metadata the exposition derives from the registry. Names must be
// dotted snake_case string literals ("subsystem.metric_name"); unbounded
// dimensions belong in a Vec label, not the name. The obs package itself
// (which implements the registry and constructs arbitrary names in its
// tests) and _test.go files are exempt.

// MetricName flags obs metric constructors whose name argument is not a
// dotted snake_case string literal.
type MetricName struct{}

func (MetricName) Name() string { return "metricname" }
func (MetricName) Doc() string {
	return "obs metric names must be dotted snake_case string literals (no Sprintf/variables)"
}

// metricObsPkgSuffix scopes the exemption to the registry implementation.
const metricObsPkgSuffix = "internal/obs"

// metricNameRe is the canonical shape: at least one dot, snake_case parts.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// metricCtors are the obs package-level constructors whose first argument
// is the registry name.
var metricCtors = map[string]bool{
	"NewCounter": true, "NewGauge": true,
	"NewCounterVec": true, "NewGaugeVec": true,
	"NewQHistogram": true, "NewQHistVec": true,
}

// metricRegistryMethods are the *obs.Registry methods under the same rule.
var metricRegistryMethods = map[string]bool{
	"Counter": true, "Gauge": true,
	"CounterVec": true, "GaugeVec": true,
	"QHistogram": true, "QHistVec": true,
}

func (MetricName) Run(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Path, metricObsPkgSuffix) ||
		strings.HasSuffix(pass.Pkg.Path, metricObsPkgSuffix+"_test") {
		return
	}
	obsPath := moduleOf(pass.Pkg.Path) + "/" + metricObsPkgSuffix
	for i, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Filenames[i], "_test.go") {
			continue
		}
		var obsNames []string // local names the file binds the obs package to
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != obsPath {
				continue
			}
			name := "obs"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			obsNames = append(obsNames, name)
		}
		if len(obsNames) == 0 {
			continue
		}
		isObsPkg := func(id *ast.Ident) bool {
			for _, on := range obsNames {
				if id.Name == on && isPackageRef(pass, id) {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fname := sel.Sel.Name
			switch {
			case metricCtors[fname]:
				id, ok := sel.X.(*ast.Ident)
				if !ok || !isObsPkg(id) {
					return true
				}
			case metricRegistryMethods[fname]:
				if !isObsRegistry(pass, sel.X, obsPath) {
					return true
				}
			default:
				return true
			}
			checkMetricName(pass, fname, call.Args[0])
			return true
		})
	}
}

// isObsRegistry reports whether x is (a pointer to) obs.Registry.
func isObsRegistry(pass *Pass, x ast.Expr, obsPath string) bool {
	t := pass.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == obsPath && obj.Name() == "Registry"
}

// checkMetricName validates one constructor's name argument.
func checkMetricName(pass *Pass, fname string, arg ast.Expr) {
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(arg.Pos(),
			"%s name must be a string literal so the metric inventory stays greppable; put dynamic dimensions in a Vec label", fname)
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !metricNameRe.MatchString(name) {
		pass.Reportf(arg.Pos(),
			"metric name %q is not dotted snake_case (want \"subsystem.metric_name\", e.g. %q)", name, "runtime.drift_alarms")
	}
}
