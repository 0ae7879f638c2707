package nfa

import "dprle/internal/budget"

// Quotient constructions. These are not part of the paper's core algorithm,
// but they give an independent characterization of maximality (§3.1,
// condition 2): for a constraint A·v·B ⊆ C, the largest admissible language
// for v is ¬(A⁻¹·(¬C)·B⁻¹). The core package's maximality checker uses them
// to validate solver output without trusting the solver's own construction.

// LeftQuotientB returns A⁻¹X = { w | ∃a ∈ L(a): aw ∈ L(x) } under a
// resource budget: the product-state exploration is accounted per visited
// pair.
func LeftQuotientB(bud *budget.Budget, a, x *NFA) (*NFA, error) {
	// A state q of x can begin the suffix iff some string of L(a) drives x
	// from its start to q. Compute the reachable product states of (a, x);
	// every x-state paired with a's final state is a valid entry point.
	entry, err := jointlyReachable(bud, a, x, true)
	if err != nil {
		return nil, err
	}
	// A fresh start (state 0) enters a copy of x at every entry point.
	states, edges, eps := sizes([]*NFA{x})
	rows := newFlatRows(1+states, edges, eps+len(entry))
	for q, ok := range entry {
		if ok {
			rows.flatP = append(rows.flatP, EpsEdge{To: 1 + q, Tag: NoTag})
		}
	}
	rows.endRow()
	rows.appendMachine(x, 1)
	return rows.build(0, 1+x.final).Trim(), nil
}

// RightQuotientB returns XB⁻¹ = { w | ∃b ∈ L(b): wb ∈ L(x) } under a
// resource budget.
func RightQuotientB(bud *budget.Budget, x, b *NFA) (*NFA, error) {
	// Symmetric to LeftQuotientB via reversal.
	lq, err := LeftQuotientB(bud, Reverse(b), Reverse(x))
	if err != nil {
		return nil, err
	}
	return Reverse(lq).Trim(), nil
}

// jointlyReachable explores the product of a and x from their joint start
// and returns, per x-state, whether the pair (a.final, xState) is reachable
// (requireAFinal=true) or whether any pair with that x-state is reachable.
// Visited product pairs are accounted against bud.
func jointlyReachable(bud *budget.Budget, a, x *NFA, requireAFinal bool) ([]bool, error) {
	type pair struct{ pa, px int }
	seen := map[pair]bool{}
	out := make([]bool, x.NumStates())
	var stack []pair
	push := func(p pair) {
		if !seen[p] {
			seen[p] = true
			stack = append(stack, p)
		}
	}
	push(pair{a.start, x.start})
	for len(stack) > 0 {
		if err := bud.AddStates(1, "nfa.quotient"); err != nil {
			return nil, err
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !requireAFinal || p.pa == a.final {
			out[p.px] = true
		}
		for _, ea := range a.eps[p.pa] {
			push(pair{ea.To, p.px})
		}
		for _, ex := range x.eps[p.px] {
			push(pair{p.pa, ex.To})
		}
		for _, ea := range a.edges[p.pa] {
			for _, ex := range x.edges[p.px] {
				if ea.Label.Intersects(ex.Label) {
					push(pair{ea.To, ex.To})
				}
			}
		}
	}
	return out, nil
}

// MaxMiddle returns the largest language M with L(a)·M·L(b) ⊆ L(c),
// namely ¬( L(a)⁻¹ · ¬L(c) · L(b)⁻¹ ). Pass Epsilon() for an absent side.
func MaxMiddle(a, b, c *NFA) *NFA {
	notC, _ := ComplementB(nil, c) // nil budget cannot fail (see budget.Budget)
	m, _ := MaxMiddleNotB(nil, a, b, notC)
	return m
}

// MaxMiddleNotB is MaxMiddle with the complement of c precomputed, letting
// callers that probe many (a, b) pairs against one constant amortize the
// determinization. The chain contains two quotient explorations and a
// complement (which determinizes), all of which are accounted against bud.
func MaxMiddleNotB(bud *budget.Budget, a, b, notC *NFA) (*NFA, error) {
	lq, err := LeftQuotientB(bud, a, notC)
	if err != nil {
		return nil, err
	}
	rq, err := RightQuotientB(bud, lq, b)
	if err != nil {
		return nil, err
	}
	comp, err := ComplementB(bud, rq)
	if err != nil {
		return nil, err
	}
	return comp.Trim(), nil
}
