package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// poolaudit: scratch-pool lifecycle discipline. internal/tensor's
// Scratch/Release pair hands out pooled float32 buffers on the kernel
// hot paths; a buffer that misses its Release on one path (typically an
// early return in dispatch code) is a silent allocation-rate regression,
// a double Release poisons the arena with an aliased buffer, and a use
// after Release reads memory another goroutine may already have
// overwritten. The analyzer runs the shared flow-sensitive resource
// engine over every function that acquires a buffer — from
// tensor.Scratch directly or from a same-package helper that returns a
// fresh Scratch buffer (e.g. tensorops.quantizedScratch) — and checks
// release-on-all-paths (defer-aware), no-double-release and
// no-use-after-release. Ownership transfers (returning the buffer,
// storing it, capturing it in a closure) exempt the site: the new owner
// is audited where the buffer lands.

// PoolAudit flags tensor scratch buffers that leak, double-release or
// are used after release.
type PoolAudit struct{}

func (PoolAudit) Name() string { return "poolaudit" }
func (PoolAudit) Doc() string {
	return "a tensor.Scratch buffer must reach tensor.Release on every path: no leaks, double releases, or use after release"
}

const tensorPkgSuffix = "internal/tensor"

func (PoolAudit) Run(pass *Pass) {
	returners := poolReturners(pass)
	spec := resourceSpec{
		noun:        "scratch buffer",
		releaseVerb: "tensor.Release",
		acquire: func(pass *Pass, as *ast.AssignStmt) *types.Var {
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return nil
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return nil
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isPoolGet(pass, call, returners) {
				return nil
			}
			v, _ := pass.ObjectOf(id).(*types.Var)
			return v
		},
		release: func(pass *Pass, call *ast.CallExpr) *types.Var {
			if !isTensorFunc(pass, call, "Release") || len(call.Args) != 1 {
				return nil
			}
			base := call.Args[0]
			if sl, ok := base.(*ast.SliceExpr); ok { // Release(buf[:n])
				base = sl.X
			}
			id, ok := base.(*ast.Ident)
			if !ok {
				return nil
			}
			v, _ := pass.ObjectOf(id).(*types.Var)
			return v
		},
	}
	runResourceAnalysis(pass, spec)
}

// isPoolGet reports whether the call produces a fresh pooled buffer:
// tensor.Scratch itself, or a function in this package known to return
// one.
func isPoolGet(pass *Pass, call *ast.CallExpr, returners map[*types.Func]bool) bool {
	if isTensorFunc(pass, call, "Scratch") {
		return true
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if fn, ok := pass.ObjectOf(id).(*types.Func); ok && returners[fn] {
			return true
		}
	}
	return false
}

// isTensorFunc reports whether the call resolves to the named function
// of the internal/tensor package — through a package selector
// (tensor.Scratch) or unqualified inside the tensor package itself.
func isTensorFunc(pass *Pass, call *ast.CallExpr, name string) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != name {
			return false
		}
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkg, ok := pass.ObjectOf(id).(*types.PkgName)
		return ok && strings.HasSuffix(pkg.Imported().Path(), tensorPkgSuffix)
	case *ast.Ident:
		fn, ok := pass.ObjectOf(fun).(*types.Func)
		return ok && fn.Name() == name && fn.Pkg() != nil &&
			strings.HasSuffix(fn.Pkg().Path(), tensorPkgSuffix)
	}
	return false
}

// poolReturners finds package-local functions that acquire a buffer from
// tensor.Scratch and return it — their callers own a pooled buffer just
// as if they had called Scratch directly. One level deep by design
// (chains of wrappers are rare; DESIGN.md §7 records the limit).
func poolReturners(pass *Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Variables assigned from tensor.Scratch in this function.
			scratchVars := map[types.Object]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				call, ok := as.Rhs[0].(*ast.CallExpr)
				if !ok || !isTensorFunc(pass, call, "Scratch") {
					return true
				}
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						scratchVars[obj] = true
					}
				}
				return true
			})
			if len(scratchVars) == 0 {
				continue
			}
			returns := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				r, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range r.Results {
					if id, ok := res.(*ast.Ident); ok && scratchVars[pass.ObjectOf(id)] {
						returns = true
					}
				}
				return true
			})
			if returns {
				if fn, ok := pass.ObjectOf(fd.Name).(*types.Func); ok {
					out[fn] = true
				}
			}
		}
	}
	return out
}
