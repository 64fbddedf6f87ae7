package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// lockorder: module-wide lock-acquisition ordering. Two goroutines that
// acquire the same pair of mutexes in opposite orders can deadlock; the
// chaos suite can only catch the interleavings it happens to hit, so
// this analyzer proves the absence of ordering cycles statically.
//
// Phase 1 builds a per-function summary — the source-order sequence of
// mutex Lock/RLock/Unlock/RUnlock events (deferred unlocks are replayed
// at function end, where they actually run) and calls to module
// functions. Locks are keyed by declaration site, not instance:
// "pkgpath.TypeName.field" for a mutex field, "pkgpath.var" for a
// package-level mutex. Local mutex variables cannot participate in
// cross-function cycles and are skipped, as are function literals
// (their locks run on their own goroutine's schedule) and _test.go
// files.
//
// Phase 2 closes the call graph: acquires*(f) = locks f takes directly
// or through any (transitively) called module function.
//
// Phase 3 replays each summary with a held-lock set, adding a directed
// edge A→B whenever B is acquired — directly or via a call — while A is
// held. Re-locking the same *instance* while held is reported
// immediately as a guaranteed self-deadlock. Same-key pairs on distinct
// instances are skipped (the key cannot tell `a.mu` from `b.mu`, so an
// edge would be ambiguous; DESIGN.md §7).
//
// Phase 4 finds cycles in the edge graph and reports each one once, at
// the first edge's acquisition site, with the full witness chain —
// which function acquired what while holding what, with file:line for
// every hop — so the diagnostic is actionable without re-running.

// LockOrder reports potential deadlocks: cycles in the module-wide
// lock-acquisition graph and direct self-deadlocks.
type LockOrder struct{}

func (LockOrder) Name() string { return "lockorder" }
func (LockOrder) Doc() string {
	return "mutexes must be acquired in a consistent module-wide order; a cycle in the acquisition graph is a potential deadlock"
}

// Run is a no-op: lockorder only makes sense over the whole module.
func (LockOrder) Run(*Pass) {}

// lockEvent is one entry in a function summary.
type lockEvent struct {
	kind   lockEventKind
	key    string // declaration-site lock key (lock/unlock)
	inst   string // instance expression rendering, e.g. "c.mu" (lock/unlock)
	callee string // types.Func.FullName (call)
	pos    token.Pos
}

type lockEventKind uint8

const (
	evLock lockEventKind = iota
	evUnlock
	evCall
)

// fnSummary is the analyzable abstraction of one function.
type fnSummary struct {
	name   string // types.Func.FullName
	pass   *Pass
	events []lockEvent
}

// lockEdge is one A→B ordering observation with its first witness.
type lockEdge struct {
	from, to string
	fn       string    // function where B was acquired while A held
	pos      token.Pos // acquisition (or call) site
	pass     *Pass
	viaCall  string // callee FullName when the acquisition is transitive
}

func (LockOrder) RunModule(passes []*Pass) {
	// Phase 1: summaries, in deterministic load/source order.
	var order []string
	summaries := map[string]*fnSummary{}
	for _, pass := range passes {
		for i, f := range pass.Pkg.Files {
			if strings.HasSuffix(pass.Pkg.Filenames[i], "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pass.ObjectOf(fd.Name).(*types.Func)
				if !ok {
					continue
				}
				s := summarize(pass, fn.FullName(), fd.Body)
				if s == nil {
					continue
				}
				if _, dup := summaries[s.name]; !dup {
					summaries[s.name] = s
					order = append(order, s.name)
				}
			}
		}
	}

	// Phase 2: transitive acquire sets, fixpoint over the call graph.
	acquires := map[string]map[string]bool{}
	for _, name := range order {
		set := map[string]bool{}
		for _, ev := range summaries[name].events {
			if ev.kind == evLock {
				set[ev.key] = true
			}
		}
		acquires[name] = set
	}
	for changed := true; changed; {
		changed = false
		for _, name := range order {
			set := acquires[name]
			for _, ev := range summaries[name].events {
				if ev.kind != evCall {
					continue
				}
				for k := range acquires[ev.callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: replay each summary, collecting edges and self-deadlocks.
	type heldLock struct{ key, inst string }
	edges := map[string]*lockEdge{} // "from\x00to" -> first witness
	addEdge := func(e *lockEdge) {
		id := e.from + "\x00" + e.to
		if _, dup := edges[id]; !dup {
			edges[id] = e
		}
	}
	for _, name := range order {
		s := summaries[name]
		var held []heldLock
		for _, ev := range s.events {
			switch ev.kind {
			case evLock:
				self := false
				for _, h := range held {
					if h.inst == ev.inst && h.key == ev.key {
						s.pass.Reportf(ev.pos,
							"%s is locked again while already held in %s (guaranteed self-deadlock on a non-reentrant mutex)",
							ev.inst, shortFn(name))
						self = true
						break
					}
				}
				if !self {
					for _, h := range held {
						if h.key != ev.key {
							addEdge(&lockEdge{from: h.key, to: ev.key, fn: name, pos: ev.pos, pass: s.pass})
						}
					}
					held = append(held, heldLock{key: ev.key, inst: ev.inst})
				}
			case evUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].inst == ev.inst {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evCall:
				if len(held) == 0 {
					continue
				}
				callee := acquires[ev.callee]
				keys := make([]string, 0, len(callee))
				for k := range callee {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					for _, h := range held {
						if h.key != k {
							addEdge(&lockEdge{from: h.key, to: k, fn: name, pos: ev.pos, pass: s.pass, viaCall: ev.callee})
						}
					}
				}
			}
		}
	}

	reportLockCycles(edges)
}

// summarize walks one function body in source order. Returns nil when
// the function neither locks nor calls (keeps the summary table small).
func summarize(pass *Pass, name string, body *ast.BlockStmt) *fnSummary {
	s := &fnSummary{name: name, pass: pass}
	var deferred []lockEvent
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false // separate execution schedule; out of summary
		case *ast.DeferStmt:
			// A deferred unlock runs at function end; replay it there so
			// `mu.Lock(); defer mu.Unlock(); other.Lock()` still records
			// the mu→other edge.
			if sel, ok := node.Call.Fun.(*ast.SelectorExpr); ok && isMutexMethod(pass, sel) {
				switch sel.Sel.Name {
				case "Unlock", "RUnlock":
					if key, inst, ok := lockKey(pass, sel.X); ok {
						deferred = append(deferred, lockEvent{kind: evUnlock, key: key, inst: inst, pos: node.Pos()})
					}
					return false
				}
			}
			return false // other deferred work: schedule unknown, skip
		case *ast.GoStmt:
			return false // new goroutine: its locks are its own sequence
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && isMutexMethod(pass, sel) {
				key, inst, ok := lockKey(pass, sel.X)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					s.events = append(s.events, lockEvent{kind: evLock, key: key, inst: inst, pos: node.Pos()})
				case "Unlock", "RUnlock":
					s.events = append(s.events, lockEvent{kind: evUnlock, key: key, inst: inst, pos: node.Pos()})
				}
				return true
			}
			if callee := calleeFullName(pass, node); callee != "" {
				s.events = append(s.events, lockEvent{kind: evCall, callee: callee, pos: node.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	s.events = append(s.events, deferred...)
	if len(s.events) == 0 {
		return nil
	}
	return s
}

// lockKey derives the declaration-site key and instance rendering of a
// mutex expression. ok is false for local mutex variables (no
// cross-function identity) and unresolvable expressions.
func lockKey(pass *Pass, x ast.Expr) (key, inst string, ok bool) {
	inst = exprString(x)
	switch e := x.(type) {
	case *ast.SelectorExpr:
		// c.mu / s.state.mu: key on the owning named type of the final
		// field selection.
		t := pass.TypeOf(e.X)
		if t == nil {
			return "", "", false
		}
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return "", "", false
		}
		obj := named.Obj()
		pkgPath := ""
		if obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		}
		return pkgPath + "." + obj.Name() + "." + e.Sel.Name, inst, true
	case *ast.Ident:
		obj := pass.ObjectOf(e)
		if obj == nil || obj.Pkg() == nil {
			return "", "", false
		}
		// Package-level mutex: declared in package scope.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), inst, true
		}
		return "", "", false
	case *ast.ParenExpr:
		return lockKey(pass, e.X)
	}
	return "", "", false
}

// calleeFullName resolves a call to a module function's FullName (empty
// for builtins, stdlib, interface methods outside the module, and
// indirect calls). FullName strings — not object identities — are the
// cross-package currency: the loader type-checks a package once for
// itself and once as a dependency, producing distinct objects.
func calleeFullName(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := pass.ObjectOf(id).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if mod := moduleOf(pass.Pkg.Path); fn.Pkg().Path() != mod && !strings.HasPrefix(fn.Pkg().Path(), mod+"/") {
		return ""
	}
	return fn.FullName()
}

// reportLockCycles finds elementary cycles in the edge graph and reports
// each once, with the complete witness chain.
func reportLockCycles(edges map[string]*lockEdge) {
	adj := map[string][]string{}
	byPair := map[string]*lockEdge{}
	for id, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		byPair[id] = e
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for n := range adj {
		sort.Strings(adj[n])
	}

	seen := map[string]bool{} // canonical cycle -> reported
	var path []string
	onPath := map[string]int{}
	var dfs func(n string)
	dfs = func(n string) {
		if idx, ok := onPath[n]; ok {
			cycle := append([]string(nil), path[idx:]...)
			emitCycle(cycle, byPair, seen)
			return
		}
		onPath[n] = len(path)
		path = append(path, n)
		for _, m := range adj[n] {
			dfs(m)
		}
		path = path[:len(path)-1]
		delete(onPath, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// emitCycle canonicalizes (rotate so the smallest key leads), dedups and
// reports one cycle through the pass of its first edge.
func emitCycle(cycle []string, edges map[string]*lockEdge, seen map[string]bool) {
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	id := strings.Join(rot, "\x00")
	if seen[id] {
		return
	}
	seen[id] = true

	var first *lockEdge
	var hops []string
	for i := range rot {
		from, to := rot[i], rot[(i+1)%len(rot)]
		e := edges[from+"\x00"+to]
		if e == nil {
			return // not an edge cycle (shouldn't happen); stay silent
		}
		if first == nil {
			first = e
		}
		p := e.pass.Fset.Position(e.pos)
		how := "acquired"
		if e.viaCall != "" {
			how = "acquired via " + shortFn(e.viaCall)
		}
		hops = append(hops, fmt.Sprintf("%s %s while holding %s in %s (%s:%d)",
			shortKey(to), how, shortKey(from), shortFn(e.fn), filepath.Base(p.Filename), p.Line))
	}
	var names []string
	for _, k := range rot {
		names = append(names, shortKey(k))
	}
	names = append(names, shortKey(rot[0]))
	first.pass.Reportf(first.pos, "lock-order cycle (potential deadlock): %s; %s",
		strings.Join(names, " → "), strings.Join(hops, "; "))
}

// shortKey trims the directory part of a lock key for display:
// "repro/internal/obs.Registry.mu" → "obs.Registry.mu".
func shortKey(k string) string {
	if i := strings.LastIndex(k, "/"); i >= 0 {
		return k[i+1:]
	}
	return k
}

// shortFn trims package directories from a FullName for display.
func shortFn(name string) string {
	// "(*repro/internal/obs.Registry).export" → "(*obs.Registry).export"
	if i := strings.LastIndex(name, "/"); i >= 0 {
		prefix := ""
		if j := strings.IndexAny(name, "(*"); j == 0 {
			for len(name) > 0 && (name[0] == '(' || name[0] == '*') {
				prefix += string(name[0])
				name = name[1:]
			}
			i = strings.LastIndex(name, "/")
		}
		if i >= 0 {
			name = name[i+1:]
		}
		return prefix + name
	}
	return name
}
