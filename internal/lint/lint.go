// Package lint is a stdlib-only static-analysis engine (go/ast, go/parser,
// go/types, go/token — deliberately no golang.org/x/tools dependency) with a
// small pluggable Analyzer interface, position-accurate diagnostics and
// comment-directive suppression.
//
// The engine exists because some of ApproxTuner's guarantees hinge on
// invariants neither the Go type system nor any test can see: tuning must
// be reproducible (seeded RNG only), HTTP clients must carry a timeout, and
// metric names must be literals. Each of those rules is one Analyzer in this
// package, and only rules no other gate owns live here (go vet, gofmt, the
// race detector and the digest pins have their own); the suite runs inside
// `go test` as TestRepositoryIsLintClean, and cmd/approxlint runs it from
// the command line.
//
// A diagnostic can be suppressed with a comment on the flagged line or on
// the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// where <analyzer> is the analyzer name (or "all") and <reason> is a
// mandatory free-text justification. Reason-less directives are themselves
// reported as findings, so every suppression stays documented.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static-analysis rule. Implementations receive a fully
// parsed and type-checked package via the Pass and report findings through
// it. Analyzers must be stateless across passes: the runner reuses them
// for every package and invokes Run concurrently on different packages.
type Analyzer interface {
	// Name is the stable identifier used in diagnostics and in
	// //lint:ignore directives (lowercase, no spaces).
	Name() string
	// Doc is a one-line description of the rule.
	Doc() string
	// Run analyzes one package.
	Run(pass *Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of an expression (nil when the
// type-checker could not resolve it).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Runner executes a set of analyzers over loaded packages and applies
// suppression directives.
type Runner struct {
	Analyzers []Analyzer
}

// NewRunner returns a runner with the full project analyzer suite.
func NewRunner() *Runner {
	return &Runner{Analyzers: AllAnalyzers()}
}

// Run analyzes every package and returns the surviving (unsuppressed)
// diagnostics sorted by file position. Packages fan out over GOMAXPROCS
// goroutines: each package collects into its own slice, results are
// merged in package order, and the final sort is total (position,
// analyzer, message), so the output is byte-identical at any processor
// count.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	workers := min(runtime.GOMAXPROCS(0), len(pkgs))

	perPkg := make([][]Diagnostic, len(pkgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pkgs) {
					return
				}
				pkg := pkgs[i]
				for _, a := range r.Analyzers {
					pass := &Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a.Name(), diags: &perPkg[i]}
					a.Run(pass)
				}
			}
		}()
	}
	wg.Wait()

	diags := applySuppressions(pkgs, slices.Concat(perPkg...), r.names())
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	return diags
}

func (r *Runner) names() map[string]bool {
	m := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		m[a.Name()] = true
	}
	return m
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string // or ["all"]
	reason    string
	used      bool
}

const ignorePrefix = "lint:ignore"

// parseDirectives extracts //lint:ignore directives from a file, keyed by
// the source line they suppress (their own line and the line below).
func parseDirectives(fset *token.FileSet, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			fields := strings.Fields(rest)
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			if len(fields) > 0 {
				d.analyzers = strings.Split(fields[0], ",")
			}
			if len(fields) > 1 {
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

func (d *ignoreDirective) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// applySuppressions drops diagnostics covered by a directive on the same
// line or the line directly above, and adds findings for malformed or
// unused directives so suppressions cannot rot silently.
func applySuppressions(pkgs []*Package, diags []Diagnostic, known map[string]bool) []Diagnostic {
	// filename -> line -> directives on that line
	byLine := make(map[string]map[int][]*ignoreDirective)
	var all []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg.Fset, f) {
				m := byLine[d.pos.Filename]
				if m == nil {
					m = make(map[int][]*ignoreDirective)
					byLine[d.pos.Filename] = m
				}
				m[d.pos.Line] = append(m[d.pos.Line], d)
				all = append(all, d)
			}
		}
	}

	var kept []Diagnostic
	for _, diag := range diags {
		suppressed := false
		for _, line := range []int{diag.Pos.Line, diag.Pos.Line - 1} {
			for _, d := range byLine[diag.Pos.Filename][line] {
				if d.covers(diag.Analyzer) && d.reason != "" {
					d.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}

	for _, d := range all {
		switch {
		case len(d.analyzers) == 0 || d.reason == "":
			kept = append(kept, Diagnostic{Pos: d.pos, Analyzer: "lintdirective",
				Message: "malformed directive: want //lint:ignore <analyzer> <reason>"})
		case !d.used:
			for _, a := range d.analyzers {
				if a != "all" && !known[a] {
					kept = append(kept, Diagnostic{Pos: d.pos, Analyzer: "lintdirective",
						Message: fmt.Sprintf("directive names unknown analyzer %q", a)})
				}
			}
		}
	}
	return kept
}
