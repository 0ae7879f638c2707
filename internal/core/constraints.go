// Package core implements the DPRLE decision procedure: the Regular Matching
// Assignments (RMA) problem of Hooimeijer & Weimer (PLDI 2009, §3.1), the
// Concatenation-Intersection (CI) subproblem and its slicing algorithm
// (§3.2, Fig. 3), dependency-graph generation (§3.4.1, Fig. 5), the
// generalized concat-intersect over CI-groups (§3.4.3, Fig. 8), and the
// worklist solver for full systems (§3.4.2, Fig. 7).
//
// A system is a finite set of constraints e ⊆ c, where e concatenates
// regular-language variables and constants and c is a constant. Solving
// produces every disjunctive maximal satisfying assignment of regular
// languages to variables.
package core

import (
	"fmt"
	"strings"

	"dprle/internal/budget"
	"dprle/internal/nfa"
)

// Expr is the left-hand side of a subset constraint: a variable, a constant,
// a concatenation, or (as a §3.1.2 extension) a union of expressions.
type Expr interface {
	exprString() string
}

// Var references a language variable by name.
type Var struct{ Name string }

// Const references a named constant regular language.
type Const struct {
	Name string
	Lang *nfa.NFA
}

// Cat is the concatenation of two expressions.
type Cat struct{ Left, Right Expr }

// Or is the union of two expressions (extension, §3.1.2). It is desugared
// during graph construction: e1|e2 ⊆ c becomes e1 ⊆ c and e2 ⊆ c.
type Or struct{ Left, Right Expr }

func (v Var) exprString() string    { return v.Name }
func (c *Const) exprString() string { return c.Name }
func (c Cat) exprString() string {
	return "(" + c.Left.exprString() + " . " + c.Right.exprString() + ")"
}
func (o Or) exprString() string {
	return "(" + o.Left.exprString() + " | " + o.Right.exprString() + ")"
}

// Constraint is a single subset constraint Lhs ⊆ Rhs.
type Constraint struct {
	Lhs Expr
	Rhs *Const
}

// String renders the constraint in the paper's notation.
func (c Constraint) String() string {
	return c.Lhs.exprString() + " ⊆ " + c.Rhs.Name
}

// System is an RMA problem instance: a set of constraints over shared
// variables (paper §3.1, I = {s1, …, sp}).
type System struct {
	constraints []Constraint
	consts      map[string]*Const
	vars        map[string]bool
	varOrder    []string
	nextAnon    int
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{consts: map[string]*Const{}, vars: map[string]bool{}}
}

// Const interns a named constant language. Re-registering the same name with
// a different language is an error; re-registering with an equivalent
// language returns the original.
func (s *System) Const(name string, lang *nfa.NFA) (*Const, error) {
	if prev, ok := s.consts[name]; ok {
		if !nfa.Equivalent(prev.Lang, lang) {
			return nil, fmt.Errorf("core: constant %q redefined with a different language", name)
		}
		return prev, nil
	}
	c := &Const{Name: name, Lang: lang}
	s.consts[name] = c
	return c, nil
}

// MustConst is Const for statically known names. The panic marks a
// programming error in static system construction; code paths that intern
// user-supplied names must call Const and handle the error.
func (s *System) MustConst(name string, lang *nfa.NFA) *Const {
	c, err := s.Const(name, lang)
	if err != nil {
		panic(err)
	}
	return c
}

// AnonConst interns a constant under a generated name. Unlike MustConst it
// cannot fail: the generated name is fresh by construction, so the constant
// is inserted directly. (User input flows through here via the parser and
// the symbolic executor; it must never panic.)
func (s *System) AnonConst(lang *nfa.NFA) *Const {
	for {
		name := fmt.Sprintf("c#%d", s.nextAnon)
		s.nextAnon++
		if _, taken := s.consts[name]; !taken {
			c := &Const{Name: name, Lang: lang}
			s.consts[name] = c
			return c
		}
	}
}

// Add appends the constraint lhs ⊆ rhs. Every variable mentioned in lhs is
// registered.
func (s *System) Add(lhs Expr, rhs *Const) error {
	if err := s.registerVars(lhs); err != nil {
		return err
	}
	if _, ok := s.consts[rhs.Name]; !ok {
		s.consts[rhs.Name] = rhs
	} else if s.consts[rhs.Name] != rhs {
		return fmt.Errorf("core: foreign constant %q shadows an interned constant", rhs.Name)
	}
	s.constraints = append(s.constraints, Constraint{Lhs: lhs, Rhs: rhs})
	return nil
}

// MustAdd is Add that panics on error, for statically known constraints.
// Code paths fed by user input must call Add and handle the error.
func (s *System) MustAdd(lhs Expr, rhs *Const) {
	if err := s.Add(lhs, rhs); err != nil {
		panic(err)
	}
}

func (s *System) registerVars(e Expr) error {
	switch e := e.(type) {
	case Var:
		if e.Name == "" {
			return fmt.Errorf("core: variable with empty name")
		}
		if !s.vars[e.Name] {
			s.vars[e.Name] = true
			s.varOrder = append(s.varOrder, e.Name)
		}
	case *Const:
		if e == nil {
			return fmt.Errorf("core: nil constant in expression")
		}
		if prev, ok := s.consts[e.Name]; ok && prev != e {
			return fmt.Errorf("core: foreign constant %q shadows an interned constant", e.Name)
		}
		s.consts[e.Name] = e
	case Cat:
		if err := s.registerVars(e.Left); err != nil {
			return err
		}
		return s.registerVars(e.Right)
	case Or:
		if err := s.registerVars(e.Left); err != nil {
			return err
		}
		return s.registerVars(e.Right)
	default:
		return fmt.Errorf("core: unknown expression type %T", e)
	}
	return nil
}

// Constraints returns the system's constraints in insertion order.
func (s *System) Constraints() []Constraint { return s.constraints }

// Vars returns the names of all registered variables, in first-use order.
func (s *System) Vars() []string { return append([]string(nil), s.varOrder...) }

// String renders the whole system, one constraint per line.
func (s *System) String() string {
	var b strings.Builder
	for _, c := range s.constraints {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// desugared returns the constraint list with Or expressions expanded:
// (e1|e2) ⊆ c ⟺ e1 ⊆ c ∧ e2 ⊆ c. Unions nested under concatenation
// distribute: (e1|e2)·e3 ⊆ c becomes e1·e3 ⊆ c and e2·e3 ⊆ c, which
// preserves the language because concatenation distributes over union.
func (s *System) desugared() []Constraint {
	var out []Constraint
	for _, c := range s.constraints {
		for _, lhs := range expandOr(c.Lhs) {
			out = append(out, Constraint{Lhs: lhs, Rhs: c.Rhs})
		}
	}
	return out
}

func expandOr(e Expr) []Expr {
	switch e := e.(type) {
	case Or:
		return append(expandOr(e.Left), expandOr(e.Right)...)
	case Cat:
		var out []Expr
		for _, l := range expandOr(e.Left) {
			for _, r := range expandOr(e.Right) {
				out = append(out, Cat{Left: l, Right: r})
			}
		}
		return out
	default:
		return []Expr{e}
	}
}

// ConcatAll folds a sequence of expressions into a left-nested Cat chain.
// It panics on an empty sequence.
func ConcatAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		panic("core: ConcatAll of no expressions")
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = Cat{Left: out, Right: e}
	}
	return out
}

// Assignment maps variable names to regular languages (paper §3.1:
// A = [v1 ↦ x1, …, vm ↦ xm]).
type Assignment map[string]*nfa.NFA

// Lookup returns the language assigned to the named variable, defaulting to
// the empty language for unknown names.
func (a Assignment) Lookup(name string) *nfa.NFA {
	if m, ok := a[name]; ok {
		return m
	}
	return nfa.Empty()
}

// Eval evaluates an expression under the assignment ([e]_A in the paper).
// It panics on an expression type outside the closed Expr set — systems
// are built through this package's constructors, so that is a solver bug
// rather than bad input.
func (a Assignment) Eval(e Expr) *nfa.NFA {
	switch e := e.(type) {
	case Var:
		return a.Lookup(e.Name)
	case *Const:
		return e.Lang
	case Cat:
		return nfa.Concat(a.Eval(e.Left), a.Eval(e.Right))
	case Or:
		return nfa.Union(a.Eval(e.Left), a.Eval(e.Right))
	}
	panic(fmt.Sprintf("core: unknown expression type %T", e))
}

// FingerprintB returns a canonical identifier for the assignment restricted
// to the given variables; two assignments agree on those variables (as
// languages) iff their fingerprints are equal. The per-variable
// canonicalization is accounted against bud.
func (a Assignment) FingerprintB(bud *budget.Budget, vars []string) (string, error) {
	var b strings.Builder
	for _, v := range vars {
		fp, err := nfa.FingerprintB(bud, a.Lookup(v))
		if err != nil {
			return "", err
		}
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(fp)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
