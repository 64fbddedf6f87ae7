package approxtuner

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The three source rules no other gate checks (DESIGN.md §7). Each reads
// only import names, selectors, string literals and composite-literal
// keys, so go/parser is all they need:
//
//   - detrand: every random stream derives from an explicit seed through
//     tensor.RNG. Only internal/tensor/rng.go imports math/rand, and
//     math/rand's global-state functions are banned everywhere.
//   - httpdefault: outside tests, no http.DefaultClient, no http.Get-style
//     helper, no http.Client literal without a Timeout and no http.Server
//     literal without a ReadHeaderTimeout or ReadTimeout. One silent peer
//     must not hang a tuning run, nor a trickling one pin a server's
//     accept slots.
//   - metricname: outside obs and tests, an obs metric constructor takes a
//     dotted snake_case string literal, so the metric inventory stays
//     greppable. A name passed to a registry held in a variable is checked
//     by the registry itself when it creates the entry.
//
// Without types, a local name that shadows an import reads as the
// package: such a finding fails loudly and is fixed by renaming.

// selectorRules maps each qualified selector a rule forbids to the rule.
var selectorRules = func() map[string]string {
	m := map[string]string{}
	for _, f := range []string{"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "Uint32", "Uint64",
		"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Seed", "Read"} {
		m["math/rand."+f] = "detrand"
		m["math/rand/v2."+f] = "detrand"
	}
	for _, f := range []string{"DefaultClient", "Get", "Post", "PostForm", "Head"} {
		m["net/http."+f] = "httpdefault"
	}
	return m
}()

// literalNeeds lists, per struct type, the keys one of which a literal
// must set to be bounded in time.
var literalNeeds = map[string][]string{
	"net/http.Client": {"Timeout"},
	"net/http.Server": {"ReadHeaderTimeout", "ReadTimeout"},
}

// metricCtors are the calls whose first argument names an obs metric.
var metricCtors = func() map[string]bool {
	m := map[string]bool{}
	for _, c := range []string{"Counter", "Gauge", "CounterVec", "GaugeVec", "QHistogram", "QHistVec"} {
		m["repro/internal/obs.New"+c] = true
		m["repro/internal/obs.Default."+c] = true
	}
	return m
}()

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

// checkSource applies the three rules to the Go file at path, a slash path
// relative to the module root.
func checkSource(t *testing.T, path string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	test := strings.HasSuffix(path, "_test.go")
	var out []finding
	report := func(n ast.Node, rule, format string, args ...any) {
		out = append(out, finding{fset.Position(n.Pos()), rule, fmt.Sprintf(format, args...)})
	}

	pkgOf := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		name := strings.TrimSuffix(ipath, "/v2")
		name = name[strings.LastIndex(name, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgOf[name] = ipath
		if (ipath == "math/rand" || ipath == "math/rand/v2") && path != "internal/tensor/rng.go" {
			report(imp, "detrand", "import %q outside internal/tensor/rng.go; draw from a seeded *tensor.RNG", ipath)
		}
	}
	// qual spells a selector chain rooted at an import with the import's
	// path ("net/http.Get", "repro/internal/obs.Default.Counter"); "" if
	// the chain is not rooted at one.
	var qual func(x ast.Expr) string
	qual = func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.Ident:
			return pkgOf[x.Name]
		case *ast.SelectorExpr:
			if q := qual(x.X); q != "" {
				return q + "." + x.Sel.Name
			}
		}
		return ""
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch q := qual(n); {
			case selectorRules[q] == "detrand":
				report(n, "detrand", "%s draws from math/rand's global state; use a seeded *tensor.RNG", q)
			case selectorRules[q] == "httpdefault" && !test:
				report(n, "httpdefault", "%s has no timeout; use an http.Client with an explicit Timeout", q)
			}
		case *ast.CompositeLit:
			if needs := literalNeeds[qual(n.Type)]; needs != nil && !test && !setsOneOf(n, needs) {
				report(n, "httpdefault", "%s literal without %s can wait forever", qual(n.Type), strings.Join(needs, " or "))
			}
		case *ast.CallExpr:
			if len(n.Args) == 0 || test || strings.HasPrefix(path, "internal/obs/") || !metricCtors[qual(n.Fun)] {
				break
			}
			lit, ok := n.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				report(n.Args[0], "metricname", "metric name is not a string literal; put a dynamic dimension in a Vec label")
			} else if name, _ := strconv.Unquote(lit.Value); !metricNameRe.MatchString(name) {
				report(lit, "metricname", "metric name %q is not dotted snake_case (\"subsystem.metric_name\")", name)
			}
		}
		return true
	})
	return out
}

// setsOneOf reports whether the literal sets one of the keys; a positional
// literal sets every field.
func setsOneOf(lit *ast.CompositeLit, keys []string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && slices.Contains(keys, id.Name) {
			return true
		}
	}
	return false
}

// TestSourceRules walks the module, testdata aside, and requires zero
// findings.
func TestSourceRules(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(name, ".go") {
			files++
			for _, f := range checkSource(t, filepath.ToSlash(path)) {
				t.Errorf("%s: [%s] %s", f.pos, f.rule, f.msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files; the walk is missing the tree", files)
	}
}

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// TestSourceRuleFixtures runs the rules over testdata/source/<rule>: each
// "// want <rule>" line must produce exactly that finding, and no other
// line any finding, so every rule can fail.
func TestSourceRuleFixtures(t *testing.T) {
	for _, rule := range []string{"detrand", "httpdefault", "metricname"} {
		t.Run(rule, func(t *testing.T) {
			paths, err := filepath.Glob("testdata/source/" + rule + "/*.go")
			if err != nil {
				t.Fatal(err)
			}
			want, got := map[string]bool{}, map[string]bool{}
			for _, path := range paths {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for i, line := range strings.Split(string(src), "\n") {
					if m := wantRe.FindStringSubmatch(line); m != nil {
						want[fmt.Sprintf("%s:%d: %s", path, i+1, m[1])] = true
					}
				}
				for _, f := range checkSource(t, path) {
					got[fmt.Sprintf("%s:%d: %s", path, f.pos.Line, f.rule)] = true
				}
			}
			if len(want) == 0 {
				t.Fatalf("no // want lines under testdata/source/%s", rule)
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%s: expected finding not reported", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("%s: unexpected finding", k)
				}
			}
		})
	}
}

// TestModuleHasNoDependencies pins the stdlib-only constraint where it is
// decided: a third-party import cannot resolve without a require directive.
func TestModuleHasNoDependencies(t *testing.T) {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?m)^\s*(require|replace)\b.*`).Find(gomod); m != nil {
		t.Errorf("go.mod declares a dependency (%q); the module builds with the standard library alone", m)
	}
}
