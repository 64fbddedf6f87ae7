// Package flow provides the intraprocedural control-flow and dataflow
// machinery behind the flow-sensitive analyzers in internal/lint:
// basic-block construction over Go function bodies and a generic forward
// worklist solver over a caller-supplied join-semilattice.
//
// The package is deliberately stdlib-only (go/ast + go/token), matching
// the rest of the lint engine: no golang.org/x/tools/go/cfg or ssa.
// Construction understands if/for/range/switch/type-switch/select, break/
// continue (labeled and not), goto, fallthrough and return; panic calls
// and the obvious never-returns (os.Exit, log.Fatal*, runtime.Goexit)
// terminate a path. Defer statements stay in their block as ordinary
// nodes (analyses decide what a deferred call means) and are additionally
// collected on the Graph for defer-aware checks.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal sequence of nodes with a single
// entry and straight-line execution, plus its successor edges.
type Block struct {
	Index int    // position in Graph.Blocks; creation (≈ source) order
	Kind  string // construction site label for debugging ("if.then", ...)
	// Nodes holds the block's statements and controlling expressions in
	// execution order. Control statements never appear whole: an if
	// contributes its Init and Cond, a for its Init/Cond/Post, a switch
	// its Init/Tag and per-clause case expressions. The one exception is
	// *ast.RangeStmt, which appears itself as the loop-head node (its
	// Body lives in successor blocks); use Inspect to visit block nodes
	// without descending into a range body twice.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block // synthetic: every return/panic/fallthrough-off-the-end leads here
	Blocks []*Block
	Defers []*ast.DeferStmt // all defer statements, in source order
}

// New builds the CFG of a function body. Nested function literals are
// not descended into — each literal is its own analysis unit with its
// own graph.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*Block{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry
	b.stmtList(body.List)
	b.jump(g.Exit)
	return g
}

// String renders the graph structure for tests and debugging:
// "0:entry->[2] 1:exit ...".
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "%d:%s(%d)->[", blk.Index, blk.Kind, len(blk.Nodes))
		for i, s := range blk.Succs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", s.Index)
		}
		sb.WriteString("] ")
	}
	return strings.TrimSpace(sb.String())
}

// Reachable reports whether the block can be reached from the entry
// (blocks after a return, or an unused label, cannot).
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// Inspect visits a block node the way flow analyses should see it:
// exactly like ast.Inspect, except that a *ast.RangeStmt node (a loop
// head) contributes only its Key, Value and X — the body belongs to
// successor blocks — and function literals are opaque (each literal is
// a separate analysis unit).
func Inspect(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if !fn(r) {
			return
		}
		for _, sub := range []ast.Node{r.Key, r.Value, r.X} {
			if sub != nil {
				Inspect(sub, fn)
			}
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type builder struct {
	g      *Graph
	cur    *Block
	stack  []target
	labels map[string]*Block // label name -> block the label starts
	fall   *Block            // fallthrough target inside a switch clause
	// pendingLabel carries the label of a LabeledStmt down to the
	// loop/switch it names, so labeled break/continue resolve.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump links the current block to `to` and starts a fresh (initially
// unreachable) block, used after terminators.
func (b *builder) jump(to *Block) {
	b.link(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

// goTo links the current block to `to` and continues building in it.
func (b *builder) goTo(to *Block) {
	b.link(b.cur, to)
	b.cur = to
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb, ok := b.labels[s.Label.Name]
		if !ok {
			lb = b.newBlock("label." + s.Label.Name)
			b.labels[s.Label.Name] = lb
		}
		b.goTo(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.link(b.cur, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			b.link(b.cur, els)
		} else {
			b.link(b.cur, done)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.link(b.cur, done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.link(b.cur, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.goTo(head)
		b.add(s.Cond)
		b.link(head, body)
		if s.Cond != nil {
			b.link(head, done)
		}
		b.stack = append(b.stack, target{label: label, brk: done, cont: cont})
		b.cur = body
		b.stmtList(s.Body.List)
		b.stack = b.stack[:len(b.stack)-1]
		b.link(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.link(b.cur, head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.goTo(head)
		b.add(s) // the RangeStmt itself is the head node; see Inspect
		b.link(head, body)
		b.link(head, done)
		b.stack = append(b.stack, target{label: label, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.stack = b.stack[:len(b.stack)-1]
		b.link(b.cur, head)
		b.cur = done

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		dispatch := b.cur
		done := b.newBlock("select.done")
		b.stack = append(b.stack, target{label: label, brk: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.link(dispatch, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.link(b.cur, done)
		}
		b.stack = b.stack[:len(b.stack)-1]
		if len(s.Body.List) == 0 {
			b.link(dispatch, done)
		}
		b.cur = done

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.jump(t.brk)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.jump(t.cont)
			}
		case token.GOTO:
			lb, ok := b.labels[s.Label.Name]
			if !ok {
				lb = b.newBlock("label." + s.Label.Name)
				b.labels[s.Label.Name] = lb
			}
			b.jump(lb)
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.jump(b.fall)
			}
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if callNeverReturns(s.X) {
			b.jump(b.g.Exit)
		}

	default:
		// AssignStmt, GoStmt, IncDecStmt, SendStmt, DeclStmt, EmptyStmt...
		b.add(s)
	}
}

// switchLike builds expression and type switches: a dispatch block
// evaluates Init/Tag, each clause gets its own block, fallthrough chains
// to the next clause, and a missing default adds a dispatch→done edge.
func (b *builder) switchLike(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	b.add(tag)
	b.add(assign)
	dispatch := b.cur
	done := b.newBlock("switch.done")

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.link(dispatch, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(dispatch, done)
	}

	b.stack = append(b.stack, target{label: label, brk: done})
	savedFall := b.fall
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fall = blocks[i+1]
		} else {
			b.fall = nil
		}
		b.stmtList(cc.Body)
		b.link(b.cur, done)
	}
	b.fall = savedFall
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *builder) findTarget(label *ast.Ident, needCont bool) *target {
	for i := len(b.stack) - 1; i >= 0; i-- {
		t := &b.stack[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// callNeverReturns recognizes expression statements that terminate the
// path: panic(...), os.Exit, log.Fatal*, runtime.Goexit. This is a
// syntactic check (no type info reaches the builder); shadowed names are
// a documented unsoundness.
func callNeverReturns(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}
