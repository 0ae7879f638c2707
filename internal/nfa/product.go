package nfa

import "dprle/internal/budget"

// denseProductLimit bounds the pair spaces (na × nb) for which the product
// and emptiness explorations use flat dense indexes instead of maps: 2²²
// entries is 16 MiB of int32, well under what a product that size allocates
// in machine structure anyway.
const denseProductLimit = 1 << 22

// IntersectB implements the cross-product construction of paper Fig. 3
// (lines 7–8): the returned machine recognizes L(a) ∩ L(b). Both operands may
// contain ε-transitions; ε-moves advance one side at a time (the standard
// asynchronous product). Seam tags on ε-edges of either operand are
// propagated to the corresponding product edges, so a seam edge f₁→s₂ in a
// concatenation machine reappears as the family {f₁q → s₂q | q ∈ Q_b} that
// the paper's Qlhs/Qrhs scan enumerates.
//
// Only product states reachable from the product start are materialized.
// Each is accounted against bud, and the construction aborts with the
// budget's *Exhausted error as soon as the budget trips. The product is the
// solver's worst-case-quadratic (and, chained, exponential) step, so this is
// the primary interruption point for deadlines and state caps. A nil budget
// never trips, so IntersectB(nil, a, b) cannot fail.
func IntersectB(bud *budget.Budget, a, b *NFA) (*NFA, error) {
	type pair struct{ pa, pb int }
	var edges [][]Edge
	var eps [][]EpsEdge
	var order []pair
	addState := func() int {
		edges = append(edges, nil)
		eps = append(eps, nil)
		return len(edges) - 1
	}
	// Pair → product-state index. When the full pair space fits under
	// denseProductLimit a flat array replaces the map: no hashing and no
	// per-entry allocation on the solver's hottest construction. Stored ids
	// are offset by one so the zero value means "unseen". The map fallback
	// keeps worst-case memory proportional to visited pairs, not na×nb.
	na, nb := a.NumStates(), b.NumStates()
	var get func(p pair) int
	var lookup func(p pair) (int, bool)
	if nb > 0 && na <= denseProductLimit/nb {
		dense := make([]int32, na*nb)
		get = func(p pair) int {
			k := p.pa*nb + p.pb
			if v := dense[k]; v != 0 {
				return int(v) - 1
			}
			id := addState()
			dense[k] = int32(id) + 1
			order = append(order, p)
			return id
		}
		lookup = func(p pair) (int, bool) {
			v := dense[p.pa*nb+p.pb]
			return int(v) - 1, v != 0
		}
	} else {
		idx := map[pair]int{}
		get = func(p pair) int {
			if id, ok := idx[p]; ok {
				return id
			}
			id := addState()
			idx[p] = id
			order = append(order, p)
			return id
		}
		lookup = func(p pair) (int, bool) {
			id, ok := idx[p]
			return id, ok
		}
	}
	start := get(pair{a.start, b.start})
	for qi := 0; qi < len(order); qi++ {
		// One probe per expanded product state bounds both the state count
		// and the time between context polls.
		if err := bud.AddStates(1, "nfa.intersect"); err != nil {
			return nil, err
		}
		p := order[qi]
		// Character moves: both sides advance on a common byte class. Count
		// first, then fill an exactly sized row — the incremental appends
		// this replaces were the product's main allocation cost.
		aE, bE := a.edges[p.pa], b.edges[p.pb]
		cnt := 0
		for _, ea := range aE {
			for _, eb := range bE {
				if ea.Label.Intersects(eb.Label) {
					cnt++
				}
			}
		}
		if cnt > 0 {
			row := make([]Edge, 0, cnt)
			for _, ea := range aE {
				for _, eb := range bE {
					label := ea.Label.Intersect(eb.Label)
					if label.IsEmpty() {
						continue
					}
					row = append(row, Edge{Label: label, To: get(pair{ea.To, eb.To})})
				}
			}
			edges[qi] = row
		}
		// ε-moves: one side advances, preserving any seam tag.
		aP, bP := a.eps[p.pa], b.eps[p.pb]
		if len(aP)+len(bP) > 0 {
			prow := make([]EpsEdge, 0, len(aP)+len(bP))
			for _, ea := range aP {
				prow = append(prow, EpsEdge{To: get(pair{ea.To, p.pb}), Tag: ea.Tag})
			}
			for _, eb := range bP {
				prow = append(prow, EpsEdge{To: get(pair{p.pa, eb.To}), Tag: eb.Tag})
			}
			eps[qi] = prow
		}
	}
	fid, ok := lookup(pair{a.final, b.final})
	if !ok {
		// The joint final state is unreachable: the intersection is empty,
		// but every machine needs a final state; add an isolated one.
		fid = addState()
	}
	return newNFA(edges, eps, start, fid), nil
}

// IntersectAllB intersects all given machines left to right under a
// resource budget. IntersectAllB(bud) is Σ*.
func IntersectAllB(bud *budget.Budget, ms ...*NFA) (*NFA, error) {
	if len(ms) == 0 {
		return AnyString(), nil
	}
	out := ms[0]
	for _, m := range ms[1:] {
		next, err := IntersectB(bud, out, m)
		if err != nil {
			return nil, err
		}
		out = next
	}
	return out, nil
}

// IntersectsB reports whether L(a) ∩ L(b) ≠ ∅, under a resource budget.
// Unlike IntersectB-then-IsEmpty it materializes no machine: it walks the
// reachable product pairs and exits as soon as the joint final pair is
// seen, so deciding "the languages meet" stops at the first witness path
// instead of enumerating the whole product. Emptiness checks (the subset
// decision procedure, the maximality verifier) are the intended callers.
// Visited pairs are accounted against bud like any other product
// exploration.
func IntersectsB(bud *budget.Budget, a, b *NFA) (bool, error) {
	type pair struct{ pa, pb int }
	final := pair{a.final, b.final}
	startP := pair{a.start, b.start}
	if startP == final {
		return true, nil
	}
	na, nb := a.NumStates(), b.NumStates()
	var seen stateSet
	var seenMap map[pair]bool
	if nb > 0 && na <= denseProductLimit/nb {
		seen = newStateSet(na * nb)
	} else {
		seenMap = map[pair]bool{}
	}
	// mark reports whether p is newly seen.
	mark := func(p pair) bool {
		if seen != nil {
			k := p.pa*nb + p.pb
			if seen.contains(k) {
				return false
			}
			seen.add(k)
			return true
		}
		if seenMap[p] {
			return false
		}
		seenMap[p] = true
		return true
	}
	mark(startP)
	stack := []pair{startP}
	for len(stack) > 0 {
		// One probe per expanded pair bounds both the pair count and the
		// time between context polls.
		if err := bud.AddStates(1, "nfa.intersect"); err != nil {
			return false, err
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ea := range a.edges[p.pa] {
			for _, eb := range b.edges[p.pb] {
				if !ea.Label.Intersects(eb.Label) {
					continue
				}
				q := pair{ea.To, eb.To}
				if q == final {
					return true, nil
				}
				if mark(q) {
					stack = append(stack, q)
				}
			}
		}
		for _, ea := range a.eps[p.pa] {
			q := pair{ea.To, p.pb}
			if q == final {
				return true, nil
			}
			if mark(q) {
				stack = append(stack, q)
			}
		}
		for _, eb := range b.eps[p.pb] {
			q := pair{p.pa, eb.To}
			if q == final {
				return true, nil
			}
			if mark(q) {
				stack = append(stack, q)
			}
		}
	}
	return false, nil
}
