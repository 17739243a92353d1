package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method a call expression invokes, nil
// for calls through function-typed variables, built-ins, and conversions.
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
	return fn
}

// builtinName returns the name of the built-in a call invokes ("" when the
// callee is not a built-in like len, cap, copy, append).
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isPkgFunc reports whether fn is a package-level function of a package
// whose import path ends in pathSuffix, with one of the given names.
func isPkgFunc(fn *types.Func, pathSuffix string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != pathSuffix && !strings.HasSuffix(p, "/"+pathSuffix) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// usesObject reports whether the subtree contains an identifier resolving
// to obj. Function literals are included: a use inside a closure is still a
// use of the variable.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
