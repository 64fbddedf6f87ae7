package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// ctxflow: context lifecycle discipline in internal/distrib. A function
// that already receives a context.Context must not mint a fresh
// context.Background()/TODO() — that detaches the request path from the
// caller's deadline and cancellation, the exact livelock class the chaos
// suite hunts. The canonical nil-guard (`if ctx == nil { ctx =
// context.Background() }`) is recognized and allowed. (Uncalled cancel
// functions are `go vet`'s lostcancel check; `make vet-selftest` pins that
// it still fires.)

// CtxFlow flags detached contexts in distrib request paths.
type CtxFlow struct{}

func (CtxFlow) Name() string { return "ctxflow" }
func (CtxFlow) Doc() string {
	return "no fresh context.Background()/TODO() in distrib functions that receive a ctx"
}

// ctxflowPkgSuffix scopes the rule to the distributed protocol.
const ctxflowPkgSuffix = "internal/distrib"

func (CtxFlow) Run(pass *Pass) {
	if !strings.HasSuffix(strings.TrimSuffix(pass.Pkg.Path, "_test"), ctxflowPkgSuffix) {
		return
	}
	for i, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Filenames[i], "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := contextParam(pass, fd)
			if ctxParam == nil {
				continue
			}
			allowed := nilGuardPositions(pass, fd.Body, ctxParam)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isCtxRoot(pass, call) {
					return true
				}
				if allowed[call.Pos()] {
					return true
				}
				pass.Reportf(call.Pos(),
					"context.%s inside a function that already receives ctx %q detaches this path from the caller's cancellation; derive from %s instead",
					call.Fun.(*ast.SelectorExpr).Sel.Name, ctxParam.Name(), ctxParam.Name())
				return true
			})
		}
	}
}

// contextParam returns the first parameter of type context.Context.
func contextParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil || t.String() != "context.Context" {
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.ObjectOf(name).(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// isCtxRoot matches context.Background() and context.TODO().
func isCtxRoot(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.ObjectOf(id).(*types.PkgName)
	return ok && pkg.Imported().Path() == "context"
}

// nilGuardPositions collects Background()/TODO() calls inside the
// canonical nil-guard `if ctx == nil { ctx = context.Background() }`,
// which re-attaches a defaulted context rather than detaching a real one.
func nilGuardPositions(pass *Pass, body *ast.BlockStmt, ctxParam *types.Var) map[token.Pos]bool {
	allowed := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		id, ok := cond.X.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != ctxParam {
			return true
		}
		if nilIdent, ok := cond.Y.(*ast.Ident); !ok || nilIdent.Name != "nil" {
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && isCtxRoot(pass, call) {
				allowed[call.Pos()] = true
			}
			return true
		})
		return true
	})
	return allowed
}
