// Package symexec performs path-sensitive symbolic execution of PHP-subset
// programs over string values and emits regular-language constraint systems
// for the DPRLE solver — the reproduction of the paper's "simple prototype
// program analysis that uses symbolic execution to set up a system of string
// variable constraints based on paths that lead to the defect" (§4).
//
// Along a path, every local variable holds a symbolic string: a
// concatenation of string literals and RMA variables. Input reads
// ($_GET/$_POST) introduce shared variables; preg_match branch decisions
// contribute subset (or complement-subset) constraints on the symbolic value
// they inspect; the sink contributes the vulnerability constraint: the
// query's symbolic value must lie inside the attack language.
package symexec

import (
	"fmt"

	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/lang"
	"dprle/internal/nfa"
	"dprle/internal/policy"
	"dprle/internal/regex"
)

// atom is one piece of a symbolic string.
type atom struct {
	lit   string // literal text (when isVar is false)
	v     string // RMA variable name (when isVar is true)
	isVar bool
}

// symStr is a symbolic string value: the concatenation of its atoms.
type symStr []atom

// PathSystem is the constraint system generated for one path to a sink.
type PathSystem struct {
	Sys *core.System
	// Inputs lists the RMA variables that correspond to HTTP inputs, in
	// first-read order; solving for these yields attack inputs.
	Inputs []string
	// InputKeys maps each input variable back to its (source, key) pair.
	InputKeys map[string][2]string
	// NumConstraints is the |C| metric of Figure 12.
	NumConstraints int
	// Sink records the analyzed sink.
	Sink cfg.PathToSink
}

// executor carries the symbolic state while walking one path.
type executor struct {
	env      map[string]symStr
	sys      *core.System
	ps       *PathSystem
	litConst map[string]*core.Const
	named    map[string]*core.Const // constants by name; see constant
	fresh    int
}

// ForPath symbolically executes one path and returns its constraint system
// under the given attack policy.
func ForPath(p cfg.PathToSink, pol policy.Policy) (*PathSystem, error) {
	ex := &executor{
		env:      map[string]symStr{},
		sys:      core.NewSystem(),
		litConst: map[string]*core.Const{},
		named:    map[string]*core.Const{},
	}
	ex.ps = &PathSystem{Sys: ex.sys, InputKeys: map[string][2]string{}, Sink: p}
	for _, step := range p.Steps {
		switch st := step.(type) {
		case cfg.StmtStep:
			if err := ex.stmt(st.S); err != nil {
				return nil, err
			}
		case cfg.CondStep:
			if err := ex.cond(st); err != nil {
				return nil, err
			}
		}
	}
	// The sink constraint: the argument's value must be in the attack
	// language.
	sink, err := ex.eval(p.Arg)
	if err != nil {
		return nil, err
	}
	rhs, err := ex.constant("policy:"+pol.Name, func() (*nfa.NFA, error) { return pol.Lang, nil })
	if err != nil {
		return nil, err
	}
	if err := ex.constrain(sink, rhs); err != nil {
		return nil, err
	}
	return ex.ps, nil
}

func (ex *executor) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Assign:
		val, err := ex.eval(s.Rhs)
		if err != nil {
			return err
		}
		ex.env[s.Name] = val
		return nil
	case *lang.CallStmt, *lang.Echo:
		// Effect-only calls and non-sink output do not change string state.
		return nil
	}
	return fmt.Errorf("symexec: unexpected statement %T on path", s)
}

func (ex *executor) cond(st cfg.CondStep) error {
	pm, ok := st.Cond.(*lang.PregMatch)
	if !ok {
		return nil // nondeterministic condition: no constraint
	}
	val, err := ex.eval(pm.Arg)
	if err != nil {
		return err
	}
	// The branch tells us whether the condition was true; the condition is
	// the (possibly negated) match result.
	matched := st.Taken != pm.Negated
	name := "nomatch:/" + pm.Pattern + "/"
	if matched {
		name = "match:/" + pm.Pattern + "/"
	}
	if pm.CaseInsensitive {
		name += "i"
	}
	rhs, err := ex.constant(name, func() (*nfa.NFA, error) {
		r, err := regex.Parse(pm.Pattern)
		if err != nil {
			return nil, fmt.Errorf("symexec: preg_match pattern: %w", err)
		}
		if pm.CaseInsensitive {
			r = r.CaseInsensitive()
		}
		m, err := r.MatchLanguage()
		if err != nil {
			return nil, fmt.Errorf("symexec: preg_match pattern: %w", err)
		}
		if !matched {
			m, _ = nfa.ComplementB(nil, m) // nil budget cannot fail
		}
		return m, nil
	})
	if err != nil {
		return err
	}
	return ex.constrain(val, rhs)
}

// constant returns the constant registered under name, calling build for
// its language only the first time name occurs on this path: a filter met
// again is neither recompiled nor re-checked for equivalence. A name the
// system already holds with a different language (two policies sharing a
// name) falls back to an anonymous constant.
func (ex *executor) constant(name string, build func() (*nfa.NFA, error)) (*core.Const, error) {
	if c, ok := ex.named[name]; ok {
		return c, nil
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	c, err := ex.sys.Const(name, m)
	if err != nil {
		c = ex.sys.AnonConst(m)
	}
	ex.named[name] = c
	return c, nil
}

// constrain adds (concat of val's atoms) ⊆ rhs to the system. Constant-only
// symbolic values still generate the constraint (it may be unsatisfiable,
// proving the path infeasible).
func (ex *executor) constrain(val symStr, rhs *core.Const) error {
	expr, err := ex.toExpr(val)
	if err != nil {
		return err
	}
	if err := ex.sys.Add(expr, rhs); err != nil {
		return err
	}
	ex.ps.NumConstraints++
	return nil
}

// toExpr converts a symbolic string to a constraint left-hand side.
func (ex *executor) toExpr(val symStr) (core.Expr, error) {
	if len(val) == 0 {
		val = symStr{{lit: ""}}
	}
	exprs := make([]core.Expr, 0, len(val))
	for _, a := range val {
		if a.isVar {
			exprs = append(exprs, core.Var{Name: a.v})
		} else {
			exprs = append(exprs, ex.litFor(a.lit))
		}
	}
	return core.ConcatAll(exprs...), nil
}

// litFor interns a literal constant, merging repeated occurrences of the
// same text.
func (ex *executor) litFor(text string) *core.Const {
	if c, ok := ex.litConst[text]; ok {
		return c
	}
	c := ex.sys.AnonConst(nfa.Literal(text))
	ex.litConst[text] = c
	return c
}

// inputVar returns the shared RMA variable for an HTTP input, creating it on
// first read.
func (ex *executor) inputVar(source, key string) string {
	name := source + ":" + key
	if _, ok := ex.ps.InputKeys[name]; !ok {
		ex.ps.Inputs = append(ex.ps.Inputs, name)
		ex.ps.InputKeys[name] = [2]string{source, key}
	}
	return name
}

// freshVar introduces an unconstrained variable for values the analysis
// cannot model precisely.
func (ex *executor) freshVar(hint string) string {
	ex.fresh++
	return fmt.Sprintf("%s#%d", hint, ex.fresh)
}

func (ex *executor) eval(e lang.Expr) (symStr, error) {
	switch e := e.(type) {
	case *lang.StrLit:
		return symStr{{lit: e.Value}}, nil
	case *lang.InputRef:
		return symStr{{v: ex.inputVar(e.Source, e.Key), isVar: true}}, nil
	case *lang.VarRef:
		if v, ok := ex.env[e.Name]; ok {
			return v, nil
		}
		// Uninitialized local: PHP yields the empty string (with a notice).
		return symStr{{lit: ""}}, nil
	case *lang.ConcatExpr:
		var out symStr
		for _, part := range e.Parts {
			v, err := ex.eval(part)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *lang.Call:
		return ex.call(e)
	}
	return nil, fmt.Errorf("symexec: unexpected expression %T", e)
}

// call applies a transfer function for known library calls; unknown calls
// return a fresh unconstrained variable (a sound overapproximation for
// attacker-reachability: the result could be anything).
func (ex *executor) call(c *lang.Call) (symStr, error) {
	// constrained returns a fresh variable constrained to rhs.
	constrained := func(hint string, rhs *core.Const) (symStr, error) {
		v := symStr{{v: ex.freshVar(hint), isVar: true}}
		if err := ex.constrain(v, rhs); err != nil {
			return nil, err
		}
		return v, nil
	}
	// compiled returns a fresh variable constrained to the language of the
	// regex src, registered under name.
	compiled := func(hint, name, src string) (symStr, error) {
		rhs, err := ex.constant(name, func() (*nfa.NFA, error) { return regex.MustCompile(src), nil })
		if err != nil {
			return nil, err
		}
		return constrained(hint, rhs)
	}
	switch c.Name {
	case "intval":
		// The string form of an integer.
		return compiled("intval", "lang:int", `-?[0-9]+`)
	case "addslashes":
		// Quotes and backslashes are escaped: no bare ' survives.
		return compiled("addslashes", "lang:slashed", `([^'\\]|\\[\x00-\xff])*`)
	case "md5":
		return compiled("md5", "lang:md5", `[0-9a-f]{32}`)
	case "sha1":
		return compiled("sha1", "lang:sha1", `[0-9a-f]{40}`)
	case "str_replace":
		// str_replace(search, replace, subject) with a single-byte constant
		// search whose byte does not occur in the constant replacement has
		// the precise image language ([^search] | replace)* — the shape of
		// quote-doubling sanitizers. Anything more general degrades to an
		// unconstrained fresh variable.
		if lang, ok := strReplaceImage(c); ok {
			return constrained("str_replace", ex.sys.AnonConst(lang))
		}
		v := ex.freshVar("str_replace")
		return symStr{{v: v, isVar: true}}, nil
	case "trim", "strtolower", "strtoupper", "stripslashes", "urldecode":
		// Length/character transformations we deliberately overapproximate:
		// the result is unconstrained (sound for attacker reachability).
		v := ex.freshVar(c.Name)
		return symStr{{v: v, isVar: true}}, nil
	default:
		v := ex.freshVar("call_" + c.Name)
		return symStr{{v: v, isVar: true}}, nil
	}
}

// strReplaceImage returns the image language of str_replace(search,
// replace, _) for the precisely modelable case: a one-byte literal search
// and a literal replacement. Replacement is then the string homomorphism
// h(search) = replace, h(c) = c, and the image of Σ* under a homomorphism
// is exactly (h(Σ))* = ([^search] | replace)* — covering quote-doubling
// sanitizers like str_replace("'", "”", $x) exactly.
func strReplaceImage(c *lang.Call) (*nfa.NFA, bool) {
	if len(c.Args) != 3 {
		return nil, false
	}
	search, ok1 := c.Args[0].(*lang.StrLit)
	replace, ok2 := c.Args[1].(*lang.StrLit)
	if !ok1 || !ok2 || len(search.Value) != 1 {
		return nil, false
	}
	other := nfa.AnyByte()
	other.Remove(search.Value[0])
	return nfa.Star(nfa.Union(nfa.Class(other), nfa.Literal(replace.Value))), true
}
