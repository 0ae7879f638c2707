// Package lintutil holds type- and AST-level predicates shared by the
// dprlelint analyzers: recognizing the solver's *budget.Budget type, the
// *B budgeted-variant convention, and budget-threaded functions.
package lintutil

import (
	"go/ast"
	"go/types"
	"path"
)

// IsBudgetPtr reports whether t is *budget.Budget — a pointer to a named
// type Budget declared in a package whose path ends in "budget". Matching
// by name and path suffix (rather than the exact import path) lets the
// analyzers run unchanged over analysistest fixtures, which supply their
// own minimal budget package.
func IsBudgetPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Budget" || obj.Pkg() == nil {
		return false
	}
	return path.Base(obj.Pkg().Path()) == "budget"
}

// HasBudgetParam reports whether the signature takes a *budget.Budget
// anywhere in its parameter list.
func HasBudgetParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if IsBudgetPtr(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// CarriesBudget reports whether a value of type t gives access to a
// budget: it is *budget.Budget itself, or a struct (possibly behind a
// pointer) with a *budget.Budget field.
func CarriesBudget(t types.Type) bool {
	if t == nil {
		return false
	}
	if IsBudgetPtr(t) {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsBudgetPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// IsBudgetThreaded reports whether fn is part of the budget discipline: it
// takes a *budget.Budget parameter, or it is a method on a type carrying a
// budget field (the solver's maximizer/gciSolver pattern).
func IsBudgetThreaded(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if HasBudgetParam(sig) {
		return true
	}
	if recv := sig.Recv(); recv != nil {
		return CarriesBudget(recv.Type())
	}
	return false
}

// IsBudgetedVariant reports whether fn itself follows the *B convention:
// name ends in "B", first parameter *budget.Budget, last result error.
func IsBudgetedVariant(fn *types.Func) bool {
	if len(fn.Name()) < 2 || fn.Name()[len(fn.Name())-1] != 'B' {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	results := sig.Results()
	if params.Len() == 0 || !IsBudgetPtr(params.At(0).Type()) {
		return false
	}
	return results.Len() > 0 && isErrorType(results.At(results.Len()-1).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// Callee resolves a call expression to the static *types.Func it invokes,
// or nil for calls through function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsNilIdent reports whether the expression is the untyped nil literal.
func IsNilIdent(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
