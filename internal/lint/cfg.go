package lint

import (
	"go/ast"
	"go/token"
)

// This file is the intraprocedural half of the flow layer: a small
// control-flow-graph builder over go/ast function bodies, the graph
// locksafe walks. It is deliberately statement-granular — a Block holds
// the statements and controlling expressions that execute
// straight-line, and the analysis walks the nodes of each block in
// order under a worklist until its transfer function reaches a
// fixpoint.
//
// The builder models if/for/range/switch/type-switch/select, labeled
// break and continue, return, and fallthrough. It does not model goto:
// a body containing one sets Unsupported, and locksafe stays silent on
// such functions rather than guess (the repository has none; the
// locksafe fixture pins the bail-out).

// Block is one basic block: nodes execute in order, control leaves to
// one of Succs afterwards.
type Block struct {
	// Nodes are the statements and controlling expressions of the
	// block, in execution order. Control-structure bodies are not
	// nested inside: an *ast.IfStmt contributes only its Init and Cond
	// here, with the branches in successor blocks.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at.
	Entry *Block
	// Exit is a synthetic, empty block every return statement and the
	// fall-off-the-end path lead to. Deferred calls conceptually run
	// on the Exit edge.
	Exit *Block
	// Unsupported is set when the body contains goto, which the
	// builder does not model. Flow analyses should skip the function.
	Unsupported bool
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Fall off the end of the body: implicit return.
	b.jump(b.cfg.Exit)
	return b.cfg
}

type cfgScope struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select scopes
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	scopes []cfgScope
	// label pending for the next loop/switch/select statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block { return &Block{} }

// jump adds an edge cur→to and leaves cur pointing at a fresh,
// unreachable block (code after a terminator).
func (b *cfgBuilder) jump(to *Block) {
	b.cur.Succs = append(b.cur.Succs, to)
	b.cur = b.newBlock()
}

// edge adds cur→to without abandoning cur's position in the walk.
func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a labelable statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		// The label names the wrapped statement for break/continue.
		// A label that is a goto target is handled by the goto case:
		// the builder bails on the goto itself.
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(b.cur, thenB)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(b.cur, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(b.cur, after)
		}
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		b.add(s.Init)
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		// The range head evaluates X each iteration entry; the body
		// statements live in their own blocks, so only X goes here
		// (the whole statement would double-count the body).
		head.Nodes = append(head.Nodes, s.X)
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Tag)
		b.caseClauses(label, s.Body.List, nil)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, nil)
	case *ast.SelectStmt:
		label := b.takeLabel()
		b.selectClauses(label, s.Body.List)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findScope(s, false); t != nil {
				b.jump(t)
			} else {
				b.cfg.Unsupported = true
			}
		case token.CONTINUE:
			if t := b.findScope(s, true); t != nil {
				b.jump(t)
			} else {
				b.cfg.Unsupported = true
			}
		case token.GOTO:
			b.cfg.Unsupported = true
		}
		// FALLTHROUGH is handled by caseClauses.
	default:
		// Assignments, declarations, expression/send/defer/go
		// statements, and anything else without internal control flow.
		b.add(s)
	}
}

// findScope resolves the target of a break or continue, optionally
// labeled. Continue skips non-loop scopes.
func (b *cfgBuilder) findScope(s *ast.BranchStmt, isContinue bool) *Block {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if isContinue && sc.continueTo == nil {
			continue
		}
		if label != "" && sc.label != label {
			continue
		}
		if isContinue {
			return sc.continueTo
		}
		return sc.breakTo
	}
	return nil
}

// caseClauses builds the blocks of a switch or type-switch body.
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, _ *Block) {
	after := b.newBlock()
	entry := b.cur
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after})
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(entry, bodies[i])
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
			b.cur = b.newBlock()
		} else {
			b.edge(b.cur, after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	if !hasDefault {
		b.edge(entry, after)
	}
	b.cur = after
}

// selectClauses builds the blocks of a select body. Each comm clause's
// communication and body form one branch; a select without a default
// still gets an entry→after edge only through its cases (an empty
// select blocks forever and keeps no successors).
func (b *cfgBuilder) selectClauses(label string, clauses []ast.Stmt) {
	after := b.newBlock()
	entry := b.cur
	b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after})
	for _, cs := range clauses {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		b.edge(entry, body)
		b.cur = body
		b.add(cc.Comm)
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// inspectShallow walks n without descending into function literals:
// flow analyses reason about the enclosing function's execution, and a
// closure's body runs on its own schedule. The literal itself is still
// visited (so callers can flag or inspect it deliberately).
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if !fn(x) {
			return false
		}
		_, isLit := x.(*ast.FuncLit)
		return !isLit
	})
}

// funcBodies returns the declaration's body followed by the body of
// every function literal inside it, outermost first: locksafe checks
// each independently.
func funcBodies(fd *ast.FuncDecl) []*ast.BlockStmt {
	if fd.Body == nil {
		return nil
	}
	out := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}
