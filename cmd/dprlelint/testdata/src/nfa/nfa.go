// Package nfa is a skeletal model of dprle/internal/nfa for the
// regression fixture: just enough of DeterminizeB, a construction's single
// budgeted form, for budgetflow to recognize the convention.
package nfa

import "budget"

type NFA struct{ states int }

type DFA struct{ states int }

func DeterminizeB(bud *budget.Budget, m *NFA) (*DFA, error) {
	if err := bud.AddStates(int64(m.states), "determinize"); err != nil {
		return nil, err
	}
	return &DFA{states: 1 << m.states}, nil
}
