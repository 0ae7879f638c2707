// Package budgetflow checks the solver's budget and context discipline.
// Its core is path-sensitive: instead of asking "does this budget-threaded
// function ever drop its budget", it asks "on which paths". The dataflow
// engine tracks the nilness of every *budget.Budget variable in scope, so
// the analyzer can tell the legitimate degradation branch (`if bud == nil
// { ... }` — the budget is provably absent) from the bug the suite exists
// to catch: a budget threaded on the happy path but dropped on an error or
// early-return path. Three whole-function rules ride along: a discarded *B
// error, a goroutine that does not carry the budget, and a dropped context.
package budgetflow

import (
	"go/ast"
	"go/types"
	"sort"

	"dprle/internal/analysis"
	"dprle/internal/analysis/dataflow"
	"dprle/internal/analyzers/interproc"
	"dprle/internal/analyzers/lintutil"
	"dprle/internal/analyzers/nilfacts"
)

var Analyzer = &analysis.Analyzer{
	Name: "budgetflow",
	Doc: `flag paths where a live budget or context is dropped

Every budgeted construction has a single form, XB(bud, ...); a nil budget
means unlimited. Inside a function that binds a *budget.Budget variable
(parameter or local), a forward dataflow analysis tracks whether each
budget is nil, non-nil, or unknown along every path. Two findings:

F1 — a call to a *B budgeted variant passing a nil budget (the literal, or
a variable that is provably nil on this path) while some budget in scope
may still be live: the construction runs unaccounted on exactly this path,
typically an error or early-return branch that was wired up in a hurry.
Under "if bud == nil" the same call is clean — the budget is provably
absent, so nil is the only thing to pass.

F3 (interprocedural, disable with -interproc=false) — a nil budget handed
to a same-package function whose summary threads that parameter into
budgeted work (a *B variant or a budget checkpoint, possibly several calls
deep): the accounting chain is severed at this call boundary even though a
live budget is in scope. Summaries come from internal/analyzers/interproc.

Three rules look at each function declaration as a whole:

R2 — the error result of a *B call must be used. Discarding it (via _, a
bare expression statement, go, or defer) is flagged unless the budget
argument is the literal nil: a nil *budget.Budget is inert by contract
(every method returns nil immediately), so a nil-budget call cannot fail.

C1 — inside a function with access to a *budget.Budget (a budget
parameter, or a method whose receiver carries a budget field), a go
statement must reference the budget (directly, or through a value that
carries a budget field, such as the solver structs). A worker that does
not see the budget performs unbounded, uncancellable automaton
constructions.

C2 — a function that takes a context.Context must not call
context.Background() or context.TODO(): doing so disconnects the work it
starts from the caller's deadline and cancellation. The nil-default idiom
is permitted: assigning context.Background() to the context parameter
itself (if ctx == nil { ctx = context.Background() }).

Suppress with //lint:ignore dprlelint/budgetflow <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	var ip *interproc.Info
	if interproc.Enabled {
		ip = interproc.Of(pass)
	}
	for _, file := range pass.Files {
		var err error
		ast.Inspect(file, func(n ast.Node) bool {
			if err != nil {
				return false
			}
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkDecl(pass, fn)
					err = checkFunc(pass, ip, fn, fn.Body)
				}
			case *ast.FuncLit:
				err = checkFunc(pass, ip, fn, fn.Body)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, ip *interproc.Info, fn ast.Node, body *ast.BlockStmt) error {
	tracked := nilfacts.TrackedVars(pass.TypesInfo, fn, body, lintutil.IsBudgetPtr)
	if len(tracked) == 0 {
		return nil
	}
	lat := &nilfacts.Lattice{Info: pass.TypesInfo, Tracked: tracked}
	g := dataflow.New(body)
	res, err := dataflow.Solve(g, lat, lat, dataflow.Forward)
	if err != nil {
		return err
	}
	reported := map[ast.Node]bool{}
	dataflow.WalkForward(g, lat, lat, res, func(n ast.Node, before dataflow.Fact) {
		checkNode(pass, ip, lat, n, before.(*nilfacts.Facts), reported)
	})
	return nil
}

func checkNode(pass *analysis.Pass, ip *interproc.Info, lat *nilfacts.Lattice, n ast.Node, f *nilfacts.Facts, reported map[ast.Node]bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		n = rng.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // has its own CFG and its own budget scope
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || reported[call] {
			return true
		}
		callee := lintutil.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		live := liveBudget(lat, f)
		if live == nil {
			return true // every budget in scope is provably nil: degradation path
		}
		switch {
		case lintutil.IsBudgetedVariant(callee) && len(call.Args) > 0:
			// F1: nil budget argument while a budget may be live.
			if lat.Eval(call.Args[0], f) == nilfacts.Nil {
				reported[call] = true
				pass.Reportf(call.Pos(),
					"budget dropped on this path: %s is called with a nil budget while %s may be live; thread %s through (or guard this path with %s == nil)",
					callee.Name(), live.Name(), live.Name(), live.Name())
			}
		default:
			// F3: nil handed to a summary-known budget-threading callee.
			if ip == nil {
				break
			}
			sum, ok := ip.ForFunc(callee)
			if !ok {
				break
			}
			for j, arg := range call.Args {
				if j >= len(sum.BudgetParams) || !sum.BudgetParams[j] {
					continue
				}
				if lat.Eval(arg, f) == nilfacts.Nil {
					reported[call] = true
					pass.Reportf(call.Pos(),
						"budget dropped at call boundary: %s threads its budget into budgeted work but receives nil here while %s may be live; pass %s",
						callee.Name(), live.Name(), live.Name())
					break
				}
			}
		}
		return true
	})
}

// liveBudget returns a budget variable in scope whose fact is not
// provably nil (the earliest-declared one, for deterministic messages),
// or nil when every tracked budget is provably nil at this point.
func liveBudget(lat *nilfacts.Lattice, f *nilfacts.Facts) *types.Var {
	var vars []*types.Var
	for v := range lat.Tracked {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		if f.Get(v) != nilfacts.Nil {
			return v
		}
	}
	return nil
}

// checkDecl applies R2, C1 and C2 to a function declaration. Its walk
// descends into the func literals of the body, so run calls it once per
// declaration and never for a FuncLit, and no finding is reported twice.
func checkDecl(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	threaded := lintutil.IsBudgetThreaded(info, fn)
	takesCtx := hasContextParam(info, fn)
	// C2's nil-default idiom `ctx = context.Background()` (re-assigning the
	// context parameter itself) keeps the caller's context when one was
	// given. The walk is pre-order, so the assignment is recorded here
	// before its right-hand call is visited.
	defaulted := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDiscardedError(pass, call, nil)
			}
		case *ast.GoStmt:
			checkDiscardedError(pass, n.Call, nil)
			if threaded && !referencesBudget(info, n.Call) {
				pass.Reportf(n.Pos(),
					"goroutine spawned in budget-threaded function %s does not reference the budget; its work is unaccounted and uncancellable",
					fn.Name.Name)
			}
		case *ast.DeferStmt:
			checkDiscardedError(pass, n.Call, nil)
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				break
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				break
			}
			checkDiscardedError(pass, call, n.Lhs)
			if takesCtx && len(n.Lhs) == 1 && isContextParam(info, n.Lhs[0], fn) {
				defaulted[call] = true
			}
		case *ast.CallExpr:
			if takesCtx && !defaulted[n] {
				checkContextDropped(pass, fn, n)
			}
		}
		return true
	})
}

// checkDiscardedError implements R2. lhs is nil when the call's results
// are discarded wholesale (expression statement, go, defer); otherwise it
// is the assignment's left-hand side.
func checkDiscardedError(pass *analysis.Pass, call *ast.CallExpr, lhs []ast.Expr) {
	callee := lintutil.Callee(pass.TypesInfo, call)
	if callee == nil || !lintutil.IsBudgetedVariant(callee) {
		return
	}
	nres := callee.Type().(*types.Signature).Results().Len()
	discarded := false
	switch {
	case lhs == nil:
		discarded = true
	case len(lhs) == nres:
		// The error is the last result by the *B convention.
		if id, ok := lhs[nres-1].(*ast.Ident); ok && id.Name == "_" {
			discarded = true
		}
	}
	// Nil-budget contract: a literal-nil budget argument cannot trip, so
	// its error is statically nil and safe to drop.
	if !discarded || len(call.Args) > 0 && lintutil.IsNilIdent(pass.TypesInfo, call.Args[0]) {
		return
	}
	pass.Reportf(call.Pos(),
		"error result of %s is discarded; a non-nil budget can trip mid-construction (only a literal nil budget cannot fail)",
		callee.Name())
}

// referencesBudget reports whether any expression in the spawned call —
// the callee, its arguments, or a func literal's body — evaluates to a
// value that gives access to a budget.
func referencesBudget(info *types.Info, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && !found {
			if tv, ok := info.Types[e]; ok && !tv.IsNil() && lintutil.CarriesBudget(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

func hasContextParam(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextParam reports whether e names a context.Context variable bound
// outside fn's body: one of its parameters, or an outer binding.
func isContextParam(info *types.Info, e ast.Expr, fn *ast.FuncDecl) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || !isContextType(obj.Type()) {
		return false
	}
	return obj.Pos() < fn.Body.Pos() || obj.Pos() > fn.Body.End()
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkContextDropped implements C2 for one call in fn.
func checkContextDropped(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		pass.Reportf(call.Pos(),
			"%s takes a context.Context but calls context.%s, dropping the caller's cancellation and deadline",
			fn.Name.Name, sel.Sel.Name)
	}
}
