package lint

import (
	"go/ast"
	"go/types"
)

// newReset builds the reset analyzer. The repo pools run state
// (sim.FlatRunner, sched.Schedule, placement.Placement, …) and the byte-
// identity guarantee rests on each type's Reset method re-initializing
// every field: a field Reset forgets keeps its value from the previous
// pooled use, and whether that stale value reaches the output depends
// on pool hit patterns — the exact nondeterminism this suite exists to
// keep out of the tree.
//
// The analyzer flags every pointer-receiver method named Reset on a
// struct type whose body never mentions one of the struct's fields
// (through the receiver, or through a wholesale `*r = T{…}`
// overwrite). Mentioning a field is a deliberately weak proxy for
// resetting it — the analyzer cannot prove the mention re-initializes
// — but the failure mode it targets is a field *added later* and
// forgotten entirely, which mention-tracking catches exactly.
// Delegating a field's reset to a helper still counts when spelled
// r.field.helper() or helper(r.field); delegation that hides the
// field (r.clearAll()) needs a //lint:ignore with the reason.
func newReset() *Analyzer {
	return &Analyzer{
		Name: "reset",
		Doc:  "flag Reset methods that never mention a field of their struct",
		Run:  runReset,
	}
}

func runReset(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Reset" || fd.Recv == nil ||
				len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			checkReset(p, fd)
		}
	}
}

func checkReset(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	recv := fd.Recv.List[0]
	ptr, ok := info.TypeOf(recv.Type).(*types.Pointer)
	if !ok {
		// A value-receiver Reset cannot re-initialize the caller's copy
		// at all; that is a bug in its own right, worth its own report.
		if st, ok := info.TypeOf(recv.Type).Underlying().(*types.Struct); ok && st.NumFields() > 0 {
			p.Reportf(fd.Name.Pos(), "Reset has a value receiver: it mutates a copy, the caller's fields keep their stale state")
		}
		return
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}
	var recvObj types.Object
	if len(recv.Names) == 1 {
		recvObj = info.Defs[recv.Names[0]]
	}

	touched := make(map[*types.Var]bool, st.NumFields())
	all := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// `*r = T{…}` overwrites every field at once.
			for _, lhs := range n.Lhs {
				if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok && recvObj != nil {
					if id, ok := ast.Unparen(star.X).(*ast.Ident); ok && info.Uses[id] == recvObj {
						all = true
					}
				}
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if recvObj == nil || !mentionsObject(info, n.X, recvObj) {
				return true
			}
			// For promoted fields the first index step names the
			// receiver struct's own (embedded) field.
			if idx := sel.Index(); len(idx) > 0 {
				touched[st.Field(idx[0])] = true
			}
		}
		return true
	})
	if all {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if touched[f] {
			continue
		}
		p.Reportf(fd.Name.Pos(), "Reset never mentions field %q of %s: stale state survives pooled reuse", f.Name(), ptr.Elem())
	}
}
