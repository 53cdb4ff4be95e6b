package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the flow layer: a static
// call graph over every repo-local package the loader reached (analysis
// roots plus their transitive local dependencies), and the two function
// summaries the flow analyzers read — which functions may block
// (locksafe) and which are reachable from a //perf:hotpath annotation
// (hotalloc).
//
// Resolution is deliberately static: direct calls and method calls on
// concrete receivers resolve through go/types; calls through function
// values and interface methods have no static callee and contribute no
// edge. Each analyzer documents how it treats that blind spot.

// HotPathDirective is the doc-comment annotation that seeds the
// hotalloc analyzer: a function whose doc comment contains a line
// starting with this marker, plus everything statically reachable from
// it, must be free of allocating constructs.
const HotPathDirective = "//perf:hotpath"

// Program is the whole-run view shared by every analyzer pass: the
// root packages under analysis plus their transitive repo-local
// dependencies, and the lazily built call graph and interprocedural
// summaries. The engine is single-goroutine, so the lazy builds need
// no locking.
type Program struct {
	all []*Package

	graph     map[*types.Func]*funcNode
	funcOrder []*types.Func // deterministic iteration order

	// hotFrom maps every function in the hot closure to the name of
	// the annotated seed it is reachable from (itself, for seeds); nil
	// until hotClosure builds it.
	hotFrom map[*types.Func]string

	// mayBlock[f] holds a short description of the blocking construct
	// that makes calling f potentially blocking (channel op, select,
	// or a blocking stdlib call), directly or transitively; nil until
	// mayBlockSummary builds it.
	mayBlock map[*types.Func]string
}

type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// callees are the statically resolved calls in the body, in
	// source order, including calls made inside nested function
	// literals (conservative: the literal usually runs on behalf of
	// the enclosing function — deferred cleanups, par.Map bodies).
	callees []*types.Func
}

// newProgram collects roots plus transitive local dependencies.
func newProgram(roots []*Package) *Program {
	p := &Program{}
	seen := map[*Package]bool{}
	var walk func(pkg *Package)
	walk = func(pkg *Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		p.all = append(p.all, pkg)
		paths := make([]string, 0, len(pkg.Deps))
		for path := range pkg.Deps {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			walk(pkg.Deps[path])
		}
	}
	for _, pkg := range roots {
		walk(pkg)
	}
	sort.Slice(p.all, func(i, j int) bool { return p.all[i].Path < p.all[j].Path })
	return p
}

// callGraph builds (once) the static call graph over p.all.
func (p *Program) callGraph() map[*types.Func]*funcNode {
	if p.graph != nil {
		return p.graph
	}
	p.graph = map[*types.Func]*funcNode{}
	for _, pkg := range p.all {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: fn, decl: fd, pkg: pkg}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := calleeFunc(pkg.Info, call); callee != nil {
							node.callees = append(node.callees, callee)
						}
					}
					return true
				})
				p.graph[fn] = node
				p.funcOrder = append(p.funcOrder, fn)
			}
		}
	}
	return p.graph
}

// hotClosure computes (once) the set of functions reachable from a
// //perf:hotpath annotation, mapped to the name of the annotated seed
// each was reached from.
func (p *Program) hotClosure() map[*types.Func]string {
	if p.hotFrom != nil {
		return p.hotFrom
	}
	graph := p.callGraph()
	p.hotFrom = map[*types.Func]string{}
	var queue []*types.Func
	for _, fn := range p.funcOrder {
		if hasHotPathDirective(graph[fn].decl) {
			p.hotFrom[fn] = fn.Name()
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		seed := p.hotFrom[fn]
		node := graph[fn]
		if node == nil {
			continue
		}
		for _, callee := range node.callees {
			if _, ok := p.hotFrom[callee]; ok {
				continue
			}
			p.hotFrom[callee] = seed
			queue = append(queue, callee)
		}
	}
	return p.hotFrom
}

// hasHotPathDirective reports whether the declaration's doc comment
// contains a //perf:hotpath line.
func hasHotPathDirective(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, HotPathDirective) {
			return true
		}
	}
	return false
}

// recvNamed returns the name of fn's receiver type ("Pool" for
// (*sync.Pool).Put), or "" for non-methods.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// mayBlockSummary computes (once) the may-block summary by fixpoint
// over the call graph: a function may block when its own body does, or
// when it calls one that may.
func (p *Program) mayBlockSummary() {
	if p.mayBlock != nil {
		return
	}
	graph := p.callGraph()
	p.mayBlock = map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.funcOrder {
			if _, ok := p.mayBlock[fn]; ok {
				continue
			}
			node := graph[fn]
			if why := blockingIn(node.pkg.Info, node.decl.Body, p.mayBlock); why != "" {
				p.mayBlock[fn] = why
				changed = true
			}
		}
	}
}

// blockingIn returns a short description of the first potentially
// blocking construct in n — a channel operation, a select, a blocking
// stdlib call, or a call to a function mayBlock marks — or "". Function
// literals are not descended into: a closure only blocks its creator
// when called, and the call site (when static) carries the edge.
func blockingIn(info *types.Info, n ast.Node, mayBlock map[*types.Func]string) string {
	why := ""
	inspectShallow(n, func(x ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := x.(type) {
		case *ast.SendStmt:
			why = "channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				why = "channel receive"
			}
		case *ast.SelectStmt:
			why = "select"
		case *ast.CallExpr:
			callee := calleeFunc(info, x)
			if desc := blockingCallee(callee); desc != "" {
				why = desc
			} else if inner, ok := mayBlock[callee]; ok {
				why = "call to " + callee.Name() + " (" + inner + ")"
			}
		}
		return why == ""
	})
	return why
}

// blockingCallee classifies directly blocking stdlib calls: network
// I/O, sleeps, pool hand-backs, and WaitGroup waits.
func blockingCallee(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := funcPkgPath(fn)
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "network call " + pkg + "." + fn.Name()
	case pkg == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case pkg == "sync" && fn.Name() == "Put" && recvNamed(fn) == "Pool":
		return "sync.Pool.Put"
	case pkg == "sync" && fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup":
		return "sync.WaitGroup.Wait"
	}
	return ""
}
