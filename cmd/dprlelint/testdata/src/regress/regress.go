// Package regress deliberately re-introduces the bug classes the budget
// discipline exists to stop: a budgeted solver path that determinizes
// without its budget, and one that drops the error its budget can return.
// The multichecker test asserts dprlelint fails on both, which is what
// keeps the CI lint gate meaningful.
package regress

import (
	"budget"
	"nfa"
)

func SolveB(bud *budget.Budget, m *nfa.NFA) (*nfa.DFA, error) {
	return nfa.DeterminizeB(nil, m) // budgetflow F1 must flag this line
}

func ProbeB(bud *budget.Budget, m *nfa.NFA) *nfa.DFA {
	d, _ := nfa.DeterminizeB(bud, m) // budgetflow R2 must flag this line
	return d
}

// CloneMachine seeds the guaranteed nil dereference the nilness analyzer
// exists to catch: on the branch below m is provably nil, and *m panics on
// every execution reaching it.
func CloneMachine(m *nfa.NFA) nfa.NFA {
	if m == nil {
		return *m // nilness must flag this line
	}
	return *m // clean: m is non-nil on this path
}

type machine struct{ states int }

// stateCount dereferences its parameter unconditionally; its summary is
// what makes the seeded call below visible to interprocedural nilness.
func stateCount(m *machine) int {
	return m.states
}

// CountStates seeds the cross-function nil flow N3 exists to catch: the
// nil literal panics one call deep, inside stateCount, which only the
// summary-based layer can see.
func CountStates() int {
	return stateCount(nil) // interprocedural nilness must flag this line
}
