package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method a call expression
// invokes, or nil for calls through function values, conversions, and
// builtins. A generic function or method resolves to its declaration
// (Origin), not to the instantiation the call names.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or
// "" for builtins and method sets without a package.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// pathTail reports whether path's final element(s) equal suffix —
// "repro/internal/rng" and the fixture tree's "internal/rng" both
// match suffix "internal/rng"; "repro/internal/sim" matches "sim".
func pathTail(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// constStringArg returns the compile-time constant string value of
// expr, if it has one (a literal, a named constant, or a constant
// concatenation).
func constStringArg(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// mentionsObject reports whether expr references obj anywhere.
func mentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// usesPackageFunc reports whether expr contains a reference to any
// function of the named package (import path match).
func usesPackageFunc(info *types.Info, expr ast.Expr, pkgPath string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && funcPkgPath(fn) == pkgPath {
			found = true
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcHasCtxParam reports whether the function type declares a
// parameter of type context.Context.
func funcHasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// enclosingFuncs returns the innermost-last chain of function
// declarations and literals on the stack.
func enclosingFuncs(stack []ast.Node) []*ast.FuncType {
	var fts []*ast.FuncType
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			fts = append(fts, fn.Type)
		case *ast.FuncLit:
			fts = append(fts, fn.Type)
		}
	}
	return fts
}
