package core

import (
	"dprle/internal/budget"
	"dprle/internal/nfa"
)

// Maximalization. The seam-slicing of concat_intersect yields disjuncts
// whose granularity depends on the state-sharing structure of the constant
// machines (the paper's own examples rely on shared suffix states: its A1/A2
// for §3.1.1 merge what a Thompson-constructed constant machine splits into
// three seam edges). To make solver output canonical — and Maximal in the
// §3.1 sense regardless of machine structure — each combined assignment is
// driven to a maximal fixpoint: every variable is repeatedly extended to the
// largest language admitted by all of its constraint occurrences (via
// quotient bounds), holding the other variables fixed. The fixpoint is
// verified against the whole system at each step, so repeated occurrences of
// a variable inside one constraint can never cause an unsound extension.
// Distinct seam combinations that maximalize to the same assignment collapse
// during deduplication, which reproduces the paper's disjunct sets exactly.
//
// Maximalization only ever grows an already-satisfying assignment, so under
// a resource budget it degrades: when the budget trips mid-fixpoint, the
// current (verified) assignment is returned unchanged instead of failing.

// maximizer maximalizes assignments against one system, taking the
// complement machines of constraint right-hand sides from the solve's
// constant cache.
type maximizer struct {
	sys    *System
	bud    *budget.Budget // nil means unlimited
	consts *constCache
	cons   []Constraint     // desugared
	byVar  map[string][]int // var name → indices into cons mentioning it
	rounds int
}

func newMaximizer(s *System, consts *constCache, bud *budget.Budget) *maximizer {
	m := &maximizer{sys: s, bud: bud, consts: consts, cons: s.desugared(), byVar: map[string][]int{}, rounds: 8}
	for i, c := range m.cons {
		for _, leaf := range flattenCat(c.Lhs) {
			if v, ok := leaf.(Var); ok {
				idxs := m.byVar[v.Name]
				if len(idxs) == 0 || idxs[len(idxs)-1] != i {
					m.byVar[v.Name] = append(idxs, i)
				}
			}
		}
	}
	return m
}

// satisfiesTouching checks only the constraints that mention v: growing v
// cannot affect any other constraint's left-hand side.
func (m *maximizer) satisfiesTouching(v string, a Assignment) (bool, error) {
	for _, i := range m.byVar[v] {
		c := m.cons[i]
		notc, err := m.consts.complement(c.Rhs)
		if err != nil {
			return false, err
		}
		bad, err := nfa.IntersectsB(m.bud, a.Eval(c.Lhs), notc)
		if err != nil {
			return false, err
		}
		if bad {
			return false, nil
		}
	}
	return true, nil
}

// bound computes the largest language variable v may hold, given the other
// assignments in a (and v's other occurrences fixed at a[v]). The second
// result reports whether v occurs in any constraint.
func (m *maximizer) bound(v string, a Assignment) (*nfa.NFA, bool, error) {
	out := nfa.AnyString()
	constrained := false
	for _, c := range m.cons {
		leaves := flattenCat(c.Lhs)
		for i, leaf := range leaves {
			lv, ok := leaf.(Var)
			if !ok || lv.Name != v {
				continue
			}
			constrained = true
			prefix := evalSlice(a, leaves[:i])
			suffix := evalSlice(a, leaves[i+1:])
			notc, err := m.consts.complement(c.Rhs)
			if err != nil {
				return nil, false, err
			}
			mid, err := nfa.MaxMiddleNotB(m.bud, prefix, suffix, notc)
			if err != nil {
				return nil, false, err
			}
			oi, err := nfa.IntersectB(m.bud, out, mid)
			if err != nil {
				return nil, false, err
			}
			out = oi.Trim()
		}
	}
	return out, constrained, nil
}

// maximalizeVars runs the fixpoint over the given variables only: it
// extends each one to its quotient bound until no variable grows. The
// result satisfies the system whenever the input does, and is Maximal for
// systems without repeated variable occurrences inside a single constraint;
// with repetitions, growth steps that would break Satisfying are skipped.
// A budget trip at any point returns the current assignment unchanged.
//
// Solve uses this per CI-group: groups share no variables or constraints,
// so maximalizing group variables against their own constraints (holding
// the rest of the assignment fixed) is equivalent to — and much cheaper
// than — maximalizing whole combined assignments.
func (m *maximizer) maximalizeVars(a Assignment, vars []string) Assignment {
	cur := Assignment{}
	for k, lang := range a {
		cur[k] = lang
	}
	for round := 0; round < m.rounds; round++ {
		if m.bud.Check("maximalize") != nil {
			return cur
		}
		changed := false
		for _, v := range vars {
			b, constrained, err := m.bound(v, cur)
			if err != nil {
				return cur
			}
			if !constrained {
				continue // free of constraints: Solve assigned Σ* already
			}
			sub, err := nfa.SubsetB(m.bud, b, cur.Lookup(v))
			if err != nil {
				return cur
			}
			if sub {
				continue // bound adds nothing
			}
			candidate := nfa.Union(cur.Lookup(v), b).Trim()
			trial := Assignment{}
			for k, lang := range cur {
				trial[k] = lang
			}
			trial[v] = candidate
			ok, err := m.satisfiesTouching(v, trial)
			if err != nil {
				return cur
			}
			if ok {
				cur = trial
				changed = true
			}
		}
		if !changed {
			return cur
		}
	}
	return cur
}
