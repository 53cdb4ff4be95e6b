package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotalloc is the static counterpart of the live allocation gate (the
// root package's TestKernelAllocations): functions annotated
// //perf:hotpath in their doc comment, and everything statically
// reachable from them through the call graph, must be free of
// allocating constructs. Where the test says "this run allocated",
// hotalloc names the line that would.
//
// The deny list covers the constructs that always (or almost always)
// hit the allocator:
//
//   - function-literal creation (closure capture)
//   - make of any kind, new, map and slice composite literals
//   - address-taken composite literals (&T{...})
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//   - calls into fmt
//   - explicit conversion of a concrete value to an interface type
//
// Deliberately allowed: append (the repo's hot loops append into
// capacity grown during prepare; amortized growth is pinned by the
// allocation test, which this rule complements rather than replaces),
// by-value struct literals (stack-allocated), and a string(b) that is
// itself an argument of a strconv call — the idiom for parsing a number
// token out of a byte slice: strconv's parsers keep no reference to
// their argument, so the compiler leaves the copy in a 32-byte stack
// buffer, and the caller bounds the token (a longer one does allocate:
// the paired allocation kernel is what holds the bound).
//
// Blind spots: calls through function values and interface methods
// have no static callee, so their targets are not checked — the
// allocation test remains the backstop for those — and implicit
// interface boxing at call boundaries is not modeled.
func newHotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "functions reachable from //perf:hotpath annotations must not allocate",
		Run:  runHotAlloc,
	}
}

func runHotAlloc(p *Pass) {
	hot := p.Prog.hotClosure()
	if len(hot) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			seed, ok := hot[fn]
			if !ok {
				continue
			}
			checkHotBody(p, fd, seed)
		}
	}
}

func checkHotBody(p *Pass, fd *ast.FuncDecl, seed string) {
	info := p.Pkg.Info
	report := func(pos token.Pos, what string) {
		p.Reportf(pos, "%s in hot path (reachable from //perf:hotpath %s)", what, seed)
	}
	strconvArg := map[ast.Expr]bool{} // visited parent first
	inspectShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure creation")
			// inspectShallow already skips the interior; the literal's
			// own body is only reachable dynamically.
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal")
				case *types.Slice:
					report(n.Pos(), "slice literal")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n.X) && info.Types[n].Value == nil {
				report(n.OpPos, "string concatenation")
			}
		case *ast.CallExpr:
			if funcPkgPath(calleeFunc(info, n)) == "strconv" {
				for _, arg := range n.Args {
					strconvArg[arg] = true
				}
			}
			if tv := info.Types[n.Fun]; !(strconvArg[n] && tv.IsType() && isStringType(tv.Type)) {
				checkHotCall(p, info, n, report)
			}
		}
		return true
	})
}

func checkHotCall(p *Pass, info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				report(call.Pos(), "make")
				return
			}
		case "new":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				report(call.Pos(), "new")
				return
			}
		}
	}
	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.Types[call.Args[0]].Type
		if from == nil {
			return
		}
		if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return // T(nil) stores no value; nothing is boxed
		}
		switch {
		case isInterface(to) && !isInterface(from):
			report(call.Pos(), "interface conversion (boxing)")
		case isStringType(to) != isStringType(from) &&
			(isStringType(to) || isStringType(from)) &&
			(isByteOrRuneSlice(to) || isByteOrRuneSlice(from)):
			if info.Types[call.Args[0]].Value == nil {
				report(call.Pos(), "string conversion")
			}
		}
		return
	}
	if fn := calleeFunc(info, call); fn != nil && funcPkgPath(fn) == "fmt" {
		report(call.Pos(), "fmt."+fn.Name()+" call")
	}
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	return t != nil && isStringType(t)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
