package core

import (
	"fmt"

	"dprle/internal/budget"
	"dprle/internal/nfa"
)

// CISolution is one disjunctive solution to a Concatenation-Intersection
// instance: an assignment [v1 ↦ V1, v2 ↦ V2] (paper §3.2).
type CISolution struct {
	V1, V2 *nfa.NFA
}

// CITrace exposes the intermediate machines of the concat_intersect
// algorithm, mirroring Fig. 3/4: M4 recognizes c1·c2, M5 recognizes
// (c1·c2) ∩ c3, and Seams lists the surviving ε-transitions between the
// paper's Qlhs and Qrhs state families.
type CITrace struct {
	M4    *nfa.NFA
	M5    *nfa.NFA
	Seams []nfa.TaggedEdge
}

// ConcatIntersect solves the CI problem
//
//	v1 ⊆ c1,  v2 ⊆ c2,  v1·v2 ⊆ c3
//
// following Fig. 3 of the paper: build M4 = c1·c2 with a single seam
// ε-transition, build M5 = M4 ∩ c3 by the cross-product construction, then
// emit one solution per surviving seam edge (q_a, q_b) — v1 is M5 with q_a
// as the only final state (induce_from_final) and v2 is M5 with q_b as the
// only start state (induce_from_start). Solutions in which either machine is
// empty are rejected, and solutions with identical language pairs are
// deduplicated.
func ConcatIntersect(c1, c2, c3 *nfa.NFA) []CISolution {
	sols, _ := ConcatIntersectTrace(c1, c2, c3)
	return sols
}

// ConcatIntersectTrace is ConcatIntersect, additionally returning the
// intermediate machines for inspection (Fig. 4 reproduces them).
func ConcatIntersectTrace(c1, c2, c3 *nfa.NFA) ([]CISolution, *CITrace) {
	sols, trace, _ := concatIntersectB(nil, c1, c2, c3) // nil budget cannot fail (see budget.Budget)
	return sols, trace
}

func concatIntersectB(bud *budget.Budget, c1, c2, c3 *nfa.NFA) ([]CISolution, *CITrace, error) {
	const seamTag = 0
	m4 := nfa.ConcatTagged(c1, c2, seamTag)
	m5i, err := nfa.IntersectB(bud, m4, c3)
	if err != nil {
		return nil, nil, err
	}
	m5 := m5i.Trim()
	trace := &CITrace{M4: m4, M5: m5, Seams: m5.TaggedEdges()}

	var out []CISolution
	seen := map[[2]string]bool{}
	for si, seam := range trace.Seams {
		if err := bud.Check("ci.seams"); err != nil {
			return out, trace, err
		}
		// Induce returns O(1) views; emptiness on a view early-exits, so
		// dead seams cost no copies at all. Trim only the survivors — the
		// solutions handed to callers stay structurally minimal.
		v1 := m5.Induce(m5.Start(), seam.From) // induce_from_final(M5, q_a)
		v2 := m5.Induce(seam.To, m5.Final())   // induce_from_start(M5, q_b)
		if v1.IsEmpty() || v2.IsEmpty() {
			continue
		}
		v1, v2 = v1.Trim(), v2.Trim()
		key, keyed := seamKey(bud, v1, v2, si)
		if keyed && seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, CISolution{V1: v1, V2: v2})
	}
	return out, trace, nil
}

// seamKey fingerprints a solution pair for dedup; when the budget trips
// mid-fingerprint the key degrades to one unique per seam index so the
// solution is kept rather than wrongly merged.
func seamKey(bud *budget.Budget, v1, v2 *nfa.NFA, ord int) ([2]string, bool) {
	f1, err := nfa.FingerprintB(bud, v1)
	if err != nil {
		return [2]string{fmt.Sprintf("!seam%d", ord), ""}, false
	}
	f2, err := nfa.FingerprintB(bud, v2)
	if err != nil {
		return [2]string{fmt.Sprintf("!seam%d", ord), ""}, false
	}
	return [2]string{f1, f2}, true
}
