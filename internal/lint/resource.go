package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"

	"repro/internal/lint/flow"
)

// ---------------------------------------------------------------------------
// Shared flow-sensitive resource-lifecycle engine. poolaudit (tensor
// scratch buffers) and spanend (obs spans) are the same analysis with
// different acquire/release matchers: a variable bound to an acquired
// resource must reach a release on every path to function exit (a
// deferred release covers all paths) and — unless the spec says a
// released resource stays usable — must not be released twice or used
// after a definite release.
//
// The engine is intraprocedural over the flow-package CFG. Ownership
// transfers exempt a variable from tracking: returning it, assigning it
// to anything, capturing it in a function literal, sending it on a
// channel, taking its address, placing it in a composite literal, or
// passing it to a call the spec says takes ownership. Method receivers
// and ordinary call arguments are synchronous borrows.
// Known unsoundness is documented in DESIGN.md §7 (bitmask facts merge
// path states, so a defer on one branch covers leaks on another; escape
// analysis is per-variable, not per-value).

// resState is the per-variable dataflow fact, a may-bitmask joined by OR.
type resState uint8

const (
	resLive     resState = 1 << iota // holds an unreleased resource on some path
	resReleased                      // explicitly released on some path
	resDeferred                      // a deferred release is registered on some path
)

// resourceSpec configures the engine for one analyzer.
type resourceSpec struct {
	// what the resource is called in diagnostics ("scratch buffer", "span").
	noun string
	// acquire inspects an assignment and returns the variable bound to a
	// fresh resource (nil when the statement is not an acquisition).
	acquire func(pass *Pass, as *ast.AssignStmt) *types.Var
	// release inspects a call and returns the tracked variable it
	// releases (nil when the call is not a release).
	release func(pass *Pass, call *ast.CallExpr) *types.Var
	// takesOwnership reports calls whose arguments are handed over rather
	// than lent (obs.ContextWithSpan); nil when every call borrows.
	takesOwnership func(call *ast.CallExpr) bool
	// usableReleased turns off the double-release and use-after-release
	// checks: an ended span can still be read and End is idempotent; a
	// released buffer belongs to the pool.
	usableReleased bool
	// releaseVerb names the expected call in leak messages ("tensor.Release", "End()").
	releaseVerb string
}

// resEngine analyzes the function units of one package against a spec.
type resEngine struct {
	pass *Pass
	spec resourceSpec

	tracked map[*types.Var]token.Pos // var -> acquire position
	escapes map[*types.Var]bool      // ownership left the unit
}

func runResourceAnalysis(pass *Pass, spec resourceSpec) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					(&resEngine{pass: pass, spec: spec}).checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				(&resEngine{pass: pass, spec: spec}).checkFunc(fn.Body)
			}
			return true
		})
	}
}

func (e *resEngine) checkFunc(body *ast.BlockStmt) {
	g := flow.New(body)

	// Phase 1: find acquisitions directly in this unit.
	e.tracked = map[*types.Var]token.Pos{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if v := e.spec.acquire(e.pass, as); v != nil {
				if _, dup := e.tracked[v]; !dup {
					e.tracked[v] = as.Pos()
				}
			}
		}
	}
	if len(e.tracked) == 0 {
		return
	}

	// Phase 2: drop variables whose ownership escapes this unit.
	e.escapes = map[*types.Var]bool{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			e.scanEscapes(n)
		}
	}
	for v := range e.escapes {
		delete(e.tracked, v)
	}
	if len(e.tracked) == 0 {
		return
	}

	// Phase 3: solve, then re-walk reachable blocks reporting.
	analysis := flow.Forward[resFact]{
		Entry: resFact{},
		Clone: maps.Clone[resFact],
		Join:  joinResFact,
		Transfer: func(f resFact, n ast.Node) resFact {
			return e.transfer(f, n, nil)
		},
	}
	in := analysis.Solve(g)

	// Findings are anchored at the acquisition, so a //lint:ignore there
	// covers a leak reported lines away, and de-duplicated on the formatted
	// message: two variables leaking at the same return are two findings.
	type finding struct {
		pos token.Pos
		msg string
	}
	seen := map[finding]bool{}
	report := func(v *types.Var, pos token.Pos, format string, args ...any) {
		key := finding{pos, fmt.Sprintf(format, args...)}
		if !seen[key] {
			seen[key] = true
			e.pass.ReportfAt(pos, e.tracked[v], "%s", key.msg)
		}
	}
	for _, blk := range g.Blocks {
		f, ok := in[blk]
		if !ok {
			continue
		}
		out := maps.Clone(f)
		for _, n := range blk.Nodes {
			out = e.transfer(out, n, report)
		}
		// Leak check on edges into the synthetic exit.
		if !slices.Contains(blk.Succs, g.Exit) {
			continue
		}
		for v, st := range out {
			if st&resLive == 0 || st&resDeferred != 0 {
				continue
			}
			pos := e.tracked[v]
			if len(blk.Nodes) > 0 {
				// The statement the path ends on — its return, when it has one.
				pos = blk.Nodes[len(blk.Nodes)-1].Pos()
			}
			acq := e.pass.Fset.Position(e.tracked[v])
			report(v, pos, "%s %q (acquired at %s:%d) is not released on this path; call %s on every path or defer it",
				e.spec.noun, v.Name(), filepath.Base(acq.Filename), acq.Line, e.spec.releaseVerb)
		}
	}
}

// resFact maps tracked variables to their may-state.
type resFact map[*types.Var]resState

func joinResFact(dst, src resFact) (resFact, bool) {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return dst, changed
}

// releasesTracked returns the tracked variable the call releases, nil
// when the call is not a release or releases an untracked variable (a
// spec's release matcher may match structurally — e.g. any x.End() call
// — so the tracked-set filter lives here).
func (e *resEngine) releasesTracked(call *ast.CallExpr) *types.Var {
	if v := e.spec.release(e.pass, call); v != nil && e.isTracked(v) {
		return v
	}
	return nil
}

// trackedVar resolves an identifier to the tracked variable it names, nil
// when it names anything else.
func (e *resEngine) trackedVar(id *ast.Ident) *types.Var {
	if v, ok := e.pass.ObjectOf(id).(*types.Var); ok && e.isTracked(v) {
		return v
	}
	return nil
}

func (e *resEngine) isTracked(v *types.Var) bool {
	_, ok := e.tracked[v]
	return ok
}

// transfer applies one block node. With report == nil it is the pure
// dataflow transfer; the reporting pass passes a dedup-ing reporter.
func (e *resEngine) transfer(f resFact, n ast.Node, report func(*types.Var, token.Pos, string, ...any)) resFact {
	// Deferred releases: only the direct `defer release(v)` form counts
	// (a release inside a deferred closure marks v escaped instead).
	if d, ok := n.(*ast.DeferStmt); ok {
		if v := e.releasesTracked(d.Call); v != nil {
			st := f[v]
			if report != nil && st&resDeferred != 0 {
				report(v, d.Pos(), "release of %q is deferred again while a deferred release is already registered (defer in a loop releases the same %s twice)",
					v.Name(), e.spec.noun)
			}
			f[v] = st | resDeferred
		}
		return f
	}

	flow.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.AssignStmt:
			if v := e.spec.acquire(e.pass, node); v != nil && e.isTracked(v) {
				st := f[v]
				// A deferred release covers the previous value (the
				// acquire-and-defer-in-a-loop idiom is clean); only a
				// live, undeferred previous value leaks here.
				if report != nil && st&resLive != 0 && st&resDeferred == 0 {
					report(v, node.Pos(), "%q is re-acquired while still holding an unreleased %s (previous value leaks)",
						v.Name(), e.spec.noun)
				}
				// A fresh resource: prior releases and defers covered
				// the previous value, not this one.
				f[v] = resLive
				return false
			}
		case *ast.CallExpr:
			if v := e.releasesTracked(node); v != nil {
				st := f[v]
				if report != nil && !e.spec.usableReleased && st&resReleased != 0 {
					if st&resLive == 0 {
						report(v, node.Pos(), "%q is released twice (%s already called on every path reaching here)", v.Name(), e.spec.releaseVerb)
					} else {
						report(v, node.Pos(), "%q may already be released on some path reaching this %s call", v.Name(), e.spec.releaseVerb)
					}
				}
				f[v] = (st &^ resLive) | resReleased
				return false
			}
		case *ast.Ident:
			if report == nil || e.spec.usableReleased {
				break
			}
			if v := e.trackedVar(node); v != nil && f[v]&(resReleased|resLive) == resReleased {
				report(v, node.Pos(), "use of %s %q after release", e.spec.noun, v.Name())
			}
		}
		return true
	})
	return f
}

// scanEscapes marks tracked variables whose ownership leaves this unit.
// Element reads (buf[i]) and synchronous borrows (the variable as a
// method receiver or call argument) are NOT transfers;
// assigning, returning, sending, capturing in a literal, launching a
// goroutine with it, or deferring a non-release call over it are.
func (e *resEngine) scanEscapes(n ast.Node) {
	flow.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.AssignStmt:
			// The acquire itself is not an escape; any other assignment
			// with the variable's value on the right-hand side moves
			// ownership (aliasing, storing in a field/map/slice element).
			if e.spec.acquire(e.pass, node) != nil {
				return false
			}
			for _, rhs := range node.Rhs {
				e.markEscapesIn(rhs)
			}
			return false
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				e.markEscapesIn(res)
			}
			return false
		case *ast.SendStmt:
			e.markEscapesIn(node.Value)
			return false
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				e.markEscapesIn(node.X)
			}
		case *ast.GoStmt:
			// The goroutine runs on its own schedule: captures and bare
			// arguments both escape.
			e.markEscapesIn(node.Call.Fun)
			for _, arg := range node.Call.Args {
				e.markEscapesIn(arg)
			}
			return false
		case *ast.DeferStmt:
			if e.releasesTracked(node.Call) == nil {
				e.markEscapesIn(node.Call.Fun)
				for _, arg := range node.Call.Args {
					e.markEscapesIn(arg)
				}
			}
			return false
		case *ast.CallExpr:
			e.markEscapesIn(node)
			return false
		}
		return true
	})
}

// markEscapesIn marks tracked variables whose VALUE flows out through
// the expression subtree. Occurrences as an index-expression base
// (element read/write), inside len/cap, or as a borrowed receiver or
// call argument do not count; everything else does.
func (e *resEngine) markEscapesIn(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.CallExpr:
			if e.releasesTracked(node) != nil {
				return false // releasing is not escaping
			}
			if id, ok := node.Fun.(*ast.Ident); ok {
				if b, ok := e.pass.ObjectOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap":
						return false
					case "append":
						// append(s, buf) stores the slice value; walk the
						// arguments in value context (element spreads
						// still hit the Ident case — conservative).
						return true
					default:
						// copy, clear, min, max...: synchronous borrows.
						for _, a := range node.Args {
							e.markBorrowedArg(a)
						}
						return false
					}
				}
			}
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				e.markBorrowedArg(sel.X) // sp.With(...): the receiver is lent too
			} else {
				e.markEscapesIn(node.Fun)
			}
			owns := e.spec.takesOwnership != nil && e.spec.takesOwnership(node)
			for _, a := range node.Args {
				if owns {
					e.markEscapesIn(a)
				} else {
					e.markBorrowedArg(a)
				}
			}
			return false
		case *ast.IndexExpr:
			// buf[i]: an element, not the slice value.
			if id, ok := node.X.(*ast.Ident); ok && e.trackedVar(id) != nil {
				e.markEscapesIn(node.Index)
				return false
			}
		case *ast.FuncLit:
			e.markAllIn(node)
			return false
		case *ast.Ident:
			e.mark(node)
		}
		return true
	})
}

// markBorrowedArg walks a call argument or receiver under borrow
// semantics: a bare tracked variable (or a re-slice of one) is lent to
// the callee for the duration of the call and stays owned here; anything
// nested deeper is walked with the usual value rules.
func (e *resEngine) markBorrowedArg(a ast.Expr) {
	switch arg := a.(type) {
	case *ast.Ident:
		// Borrowed for the call; still owned here.
	case *ast.SliceExpr:
		e.markEscapesIn(arg.Low)
		e.markEscapesIn(arg.High)
		e.markEscapesIn(arg.Max)
		if _, ok := arg.X.(*ast.Ident); !ok {
			e.markEscapesIn(arg.X)
		}
	default:
		e.markEscapesIn(a)
	}
}

// markAllIn marks every tracked variable mentioned in the subtree — the
// rule for function-literal captures, where even an element read may
// happen after this unit returns.
func (e *resEngine) markAllIn(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			e.mark(id)
		}
		return true
	})
}

func (e *resEngine) mark(id *ast.Ident) {
	if v := e.trackedVar(id); v != nil {
		e.escapes[v] = true
	}
}
