package core

import (
	"fmt"

	"dprle/internal/nfa"
)

// This file provides independent checkers for the two RMA solution
// conditions of §3.1 — Satisfying and Maximal. They re-derive both
// properties from first principles (subset checks and quotient
// constructions) without reusing the solver's machinery, standing in for
// the paper's mechanized Coq proof as an executable specification. They run
// without a budget, and a nil budget cannot fail (see budget.Budget), so
// every error a nil-budget construction returns here is nil.

// Satisfies reports whether the assignment meets every constraint:
// ∀ (e ⊆ c) ∈ I: [e]_A ⊆ [c].
func Satisfies(s *System, a Assignment) bool {
	for _, c := range s.Constraints() {
		if ok, _ := nfa.SubsetB(nil, a.Eval(c.Lhs), c.Rhs.Lang); !ok {
			return false
		}
	}
	return true
}

// MaximalityViolation reports a variable whose language can absorb another
// string without breaking any constraint.
type MaximalityViolation struct {
	Var     string
	Witness string
}

func (v *MaximalityViolation) Error() string {
	return fmt.Sprintf("core: assignment not maximal: %s can absorb %q", v.Var, v.Witness)
}

// CheckMaximal verifies the Maximal condition of §3.1: no variable's
// language can be extended without violating Satisfying.
//
// For each variable v it computes, per occurrence of v in a constraint
// A·v·B ⊆ C (other variables, and v's other occurrences, held at their
// assigned languages), the largest admissible middle language via the
// quotient construction ¬(A⁻¹·¬C·B⁻¹); the intersection of these bounds over
// all occurrences is everything v could possibly contain. If the assigned
// language is strictly below the bound, candidate extension strings from the
// gap are re-validated against the full system — adding a string to v
// changes all of v's occurrences simultaneously, so this guards against
// false positives on repeated variables. A confirmed extension is returned
// as *MaximalityViolation.
func CheckMaximal(s *System, a Assignment) error {
	if !Satisfies(s, a) {
		return fmt.Errorf("core: assignment does not satisfy the system")
	}
	for _, v := range s.Vars() {
		bound := nfa.AnyString()
		constrained := false
		for _, c := range s.desugared() {
			leaves := flattenCat(c.Lhs)
			for i, leaf := range leaves {
				lv, ok := leaf.(Var)
				if !ok || lv.Name != v {
					continue
				}
				constrained = true
				prefix := evalSlice(a, leaves[:i])
				suffix := evalSlice(a, leaves[i+1:])
				meet, _ := nfa.IntersectB(nil, bound, nfa.MaxMiddle(prefix, suffix, c.Rhs.Lang))
				bound = meet.Trim()
			}
		}
		notV, _ := nfa.ComplementB(nil, a.Lookup(v))
		if !constrained {
			// Unconstrained variables must be Σ* to be maximal.
			if !nfa.Equivalent(a.Lookup(v), nfa.AnyString()) {
				w, _ := notV.ShortestWitness()
				return &MaximalityViolation{Var: v, Witness: w}
			}
			continue
		}
		meet, _ := nfa.IntersectB(nil, bound, notV)
		gap := meet.Trim()
		if gap.IsEmpty() {
			continue // assigned language already covers the bound
		}
		// Try a handful of gap strings as candidate extensions.
		for _, w := range gap.Enumerate(maxWitnessLen(gap), 8) {
			ext := Assignment{}
			for k, lang := range a {
				ext[k] = lang
			}
			ext[v] = nfa.Union(a.Lookup(v), nfa.Literal(w))
			if Satisfies(s, ext) {
				return &MaximalityViolation{Var: v, Witness: w}
			}
		}
	}
	return nil
}

// maxWitnessLen picks an enumeration depth that guarantees at least one gap
// string is generated: the shortest witness's length.
func maxWitnessLen(m *nfa.NFA) int {
	w, ok := m.ShortestWitness()
	if !ok {
		return 0
	}
	return len(w) + 2
}

// flattenCat returns the in-order leaf sequence of a Cat chain. The input
// must be Or-free (desugared).
func flattenCat(e Expr) []Expr {
	if c, ok := e.(Cat); ok {
		return append(flattenCat(c.Left), flattenCat(c.Right)...)
	}
	return []Expr{e}
}

// evalSlice evaluates the concatenation of a leaf slice under the
// assignment; the empty slice is {ε}.
func evalSlice(a Assignment, leaves []Expr) *nfa.NFA {
	ms := []*nfa.NFA{nfa.Epsilon()}
	for _, l := range leaves {
		ms = append(ms, a.Eval(l))
	}
	return nfa.ConcatAll(ms...)
}

// CheckAllSolutions verifies the All-Solutions property of the CI problem
// (§3.2, condition 3): every string of (c1·c2) ∩ c3 is covered by some
// returned solution's [v1·v2]. Coverage is decided exactly on languages:
// (c1·c2) ∩ c3 ⊆ ⋃ᵢ (V1ᵢ·V2ᵢ).
func CheckAllSolutions(c1, c2, c3 *nfa.NFA, sols []CISolution) bool {
	whole, _ := nfa.IntersectB(nil, nfa.Concat(c1, c2), c3)
	covered := nfa.Empty()
	for _, s := range sols {
		covered = nfa.Union(covered, nfa.Concat(s.V1, s.V2))
	}
	ok, _ := nfa.SubsetB(nil, whole, covered)
	return ok
}
