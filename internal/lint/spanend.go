package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// spanend: observability span hygiene. A span returned by Tracer.Start /
// Span.Child (and the obs.Start package helper) must be ended on every
// path of the function that created it — otherwise the span never reaches
// the JSONL export and the trace tree silently loses a subtree. The
// analyzer runs the shared resource engine: `defer sp.End()` covers every
// path, an explicit `sp.End()` must be reached from each one. Calling a
// method on the span or passing it to a function lends it; returning it,
// storing it, capturing it in a closure or placing it in a context with
// obs.ContextWithSpan hands it to a new owner, who ends it elsewhere
// (e.g. RuntimeTuner.Close). Reading an ended span (sp.TraceID()) is
// legal and End is idempotent, so the engine's use-after-release and
// double-release checks are off.

// SpanEnd flags obs spans that are started but not ended on all paths.
type SpanEnd struct{}

func (SpanEnd) Name() string { return "spanend" }
func (SpanEnd) Doc() string {
	return "every obs span started must be ended on all paths (defer or explicit)"
}

// spanTypeSuffix matches *repro/internal/obs.Span without hardcoding the
// module name.
const spanTypeSuffix = "internal/obs.Span"

func isSpanType(t string) bool {
	return strings.HasPrefix(t, "*") && strings.HasSuffix(t, spanTypeSuffix)
}

func (SpanEnd) Run(pass *Pass) {
	runResourceAnalysis(pass, resourceSpec{
		noun:           "span",
		releaseVerb:    "End()",
		usableReleased: true,
		// Any span-typed LHS of a call assignment creates ownership here —
		// including the multi-value forms (ctx, sp := tr.StartCtx(...)),
		// where the call's type is a tuple, so each LHS identifier is
		// typed individually. SpanFromContext borrows the context's span:
		// retrieval, not creation; whoever put it there owns its End.
		acquire: func(pass *Pass, as *ast.AssignStmt) *types.Var {
			if len(as.Rhs) != 1 {
				return nil
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || calleeName(call) == "SpanFromContext" {
				return nil
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if v, ok := pass.ObjectOf(id).(*types.Var); ok && isSpanType(v.Type().String()) {
					return v
				}
			}
			return nil
		},
		// The receiver may be a chain of pass-through span methods:
		// sp.With("k", v).End().
		release: func(pass *Pass, call *ast.CallExpr) *types.Var {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
				return nil
			}
			id := chainBaseIdent(sel.X)
			if id == nil {
				return nil
			}
			v, _ := pass.ObjectOf(id).(*types.Var)
			return v
		},
		takesOwnership: func(call *ast.CallExpr) bool {
			return calleeName(call) == "ContextWithSpan"
		},
	})
}

// calleeName is the unqualified name a call is spelled with: f(...) and
// pkg.f(...) / recv.f(...) both give "f".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// chainBaseIdent unwraps a method-call chain (sp.With(...).With(...)) to
// its base identifier; nil when the base is not a plain identifier.
func chainBaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
