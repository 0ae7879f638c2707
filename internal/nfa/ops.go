package nfa

// This file implements the structural NFA operations the DPRLE algorithm is
// built from: concatenation (with and without seam tags), union, star,
// reverse, ε-closure, trimming, and the induce operations used to slice
// solution machines out of a product machine.

import "math/bits"

// Concat returns a machine for L(a)·L(b), joining a's final state to b's
// start state with a single ordinary ε-transition (paper Fig. 3, line 6).
func Concat(a, b *NFA) *NFA {
	return concatAll([]*NFA{a, b}, NoTag)
}

// ConcatTagged returns a machine for L(a)·L(b) whose joining ε-transition
// carries the given seam tag. Intersections preserve the tag, so the
// surviving copies of this edge are exactly the CI algorithm's candidate
// slicing points. It panics if tag is negative (see Builder.AddTaggedEps).
func ConcatTagged(a, b *NFA, tag int) *NFA {
	if tag < 0 {
		panic("nfa: ConcatTagged with negative tag")
	}
	return concatAll([]*NFA{a, b}, tag)
}

// ConcatAll returns a machine for L(ms[0])·L(ms[1])·…: the machine the left
// fold Concat(Concat(ms[0], ms[1]), …) builds, state for state, with each
// operand copied once rather than once per fold step. ConcatAll() is {ε},
// and ConcatAll(m) is m.
func ConcatAll(ms ...*NFA) *NFA {
	switch len(ms) {
	case 0:
		return Epsilon()
	case 1:
		return ms[0]
	}
	return concatAll(ms, NoTag)
}

// concatAll lays the operands out in order, joining each final state to the
// next operand's start with an ε-edge carrying tag.
func concatAll(ms []*NFA, tag int) *NFA {
	states, edges, eps := sizes(ms)
	rows := newFlatRows(states, edges, eps+len(ms)-1)
	off := 0
	for i, m := range ms {
		next := off + m.NumStates()
		if i+1 < len(ms) {
			rows.appendMachine(m, off, EpsEdge{To: next + ms[i+1].start, Tag: tag})
		} else {
			rows.appendMachine(m, off)
		}
		off = next
	}
	last := ms[len(ms)-1]
	return rows.build(ms[0].start, off-last.NumStates()+last.final)
}

// Union returns a machine for L(a) ∪ L(b).
func Union(a, b *NFA) *NFA {
	return UnionAll(a, b)
}

// UnionAll returns a machine for the union of all given languages: the
// machine the left fold Union(Union(ms[0], ms[1]), …) builds, state for
// state, with each operand copied once. UnionAll() is the empty language,
// and UnionAll(m) is m.
//
// Each fold step puts a fresh start and final state before its left
// operand, so the k−1 steps' hub pairs come first, outermost first, and
// the operands follow in order. Step i (1 ≤ i < k) adds ms[i]: its start
// enters the left operand (step i−1's start, or ms[0]'s) and ms[i]; its
// final is entered from the left operand's final and ms[i]'s, and enters
// step i+1's final.
func UnionAll(ms ...*NFA) *NFA {
	switch len(ms) {
	case 0:
		return Empty()
	case 1:
		return ms[0]
	}
	k := len(ms)
	hub := func(i int) int { return 2 * (k - 1 - i) } // step i's start; its final is hub(i)+1
	states, edges, eps := sizes(ms)
	rows := newFlatRows(2*(k-1)+states, edges, eps+2*(k-1)+(k-2)+k)
	off := make([]int, k)
	off[0] = 2 * (k - 1)
	for i := 1; i < k; i++ {
		off[i] = off[i-1] + ms[i-1].NumStates()
	}
	for i := k - 1; i >= 1; i-- {
		left := off[0] + ms[0].start
		if i > 1 {
			left = hub(i - 1)
		}
		rows.flatP = append(rows.flatP, EpsEdge{To: left, Tag: NoTag}, EpsEdge{To: off[i] + ms[i].start, Tag: NoTag})
		rows.endRow()
		if i < k-1 {
			rows.flatP = append(rows.flatP, EpsEdge{To: hub(i+1) + 1, Tag: NoTag})
		}
		rows.endRow()
	}
	for i, m := range ms {
		rows.appendMachine(m, off[i], EpsEdge{To: hub(max(i, 1)) + 1, Tag: NoTag})
	}
	return rows.build(0, 1)
}

// Star returns a machine for L(a)*. The paper's constraint grammar does not
// allow Kleene star on variables, but constants are arbitrary regular
// languages, so the regex compiler needs it.
func Star(a *NFA) *NFA {
	return around(a, true, true)
}

// Plus returns a machine for L(a)+ = L(a)·L(a)*.
func Plus(a *NFA) *NFA {
	return around(a, false, true)
}

// Optional returns a machine for L(a) ∪ {ε}.
func Optional(a *NFA) *NFA {
	return around(a, true, false)
}

// around returns a machine whose fresh start (state 0) and final (state 1)
// enclose a copy of a: the start enters a, and a's final enters the final.
// skip adds an ε-edge from the start to the final, and back one from a's
// final to a's start.
func around(a *NFA, skip, back bool) *NFA {
	states, edges, eps := sizes([]*NFA{a})
	rows := newFlatRows(2+states, edges, eps+4)
	in := EpsEdge{To: 2 + a.start, Tag: NoTag}
	out := EpsEdge{To: 1, Tag: NoTag}
	rows.flatP = append(rows.flatP, in)
	if skip {
		rows.flatP = append(rows.flatP, out)
	}
	rows.endRow()
	rows.endRow()
	if back {
		rows.appendMachine(a, 2, out, in)
	} else {
		rows.appendMachine(a, 2, out)
	}
	return rows.build(0, 1)
}

// Reverse returns a machine for the reversal of L(m).
func Reverse(m *NFA) *NFA {
	bl := NewBuilder()
	bl.AddStates(m.NumStates())
	for s := 0; s < m.NumStates(); s++ {
		for _, e := range m.edges[s] {
			bl.AddEdge(e.To, e.Label, s)
		}
		for _, e := range m.eps[s] {
			if e.Tag == NoTag {
				bl.AddEps(e.To, s)
			} else {
				bl.AddTaggedEps(e.To, s, e.Tag)
			}
		}
	}
	return bl.Build(m.final, m.start)
}

// eclose returns the memoized ε-closure of state s (s itself included),
// following tagged and untagged ε-edges alike. The returned set is shared
// across callers and views and must be treated as read-only.
func (m *NFA) eclose(s int) stateSet {
	if p := m.eclo.sets[s].Load(); p != nil {
		return *p
	}
	set := newStateSet(m.NumStates())
	set.add(s)
	stack := []int{s}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.eps[q] {
			if !set.contains(e.To) {
				set.add(e.To)
				stack = append(stack, e.To)
			}
		}
	}
	m.eclo.sets[s].Store(&set)
	return set
}

// closure expands the state set with everything reachable via
// ε-transitions, tagged or not, by unioning the memoized per-state closures
// word-at-a-time.
func (m *NFA) closure(set stateSet) {
	for wi := range set {
		// Snapshot the word: any state a union adds is drawn from a
		// transitively closed eclose set, so it never needs processing.
		w := set[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			s := wi<<6 | b
			if len(m.eps[s]) == 0 {
				continue
			}
			set.unionWith(m.eclose(s))
		}
	}
}

// startClosure returns the ε-closure of the start state. The result aliases
// the closure memo and must be treated as read-only.
func (m *NFA) startClosure() stateSet {
	return m.eclose(m.start)
}

// step advances a closed state set over input byte c and re-closes it.
func (m *NFA) step(set stateSet, c byte) stateSet {
	next := newStateSet(m.NumStates())
	for wi, w := range set {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			for _, e := range m.edges[wi<<6|b] {
				if e.Label.Contains(c) {
					next.add(e.To)
				}
			}
		}
	}
	m.closure(next)
	return next
}

// Accepts reports whether m accepts the string w.
func (m *NFA) Accepts(w string) bool {
	set := m.startClosure()
	for i := 0; i < len(w); i++ {
		set = m.step(set, w[i])
		if set.isEmpty() {
			return false
		}
	}
	return set.contains(m.final)
}

// reachable returns the set of states reachable from the start state via any
// transition (character or ε).
func (m *NFA) reachable() stateSet {
	seen := newStateSet(m.NumStates())
	seen.add(m.start)
	stack := []int{m.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.edges[s] {
			if !seen.contains(e.To) {
				seen.add(e.To)
				stack = append(stack, e.To)
			}
		}
		for _, e := range m.eps[s] {
			if !seen.contains(e.To) {
				seen.add(e.To)
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// coreachable returns the set of states from which the final state is
// reachable.
func (m *NFA) coreachable() stateSet {
	n := m.NumStates()
	// Reverse adjacency in CSR form: counting pass, prefix sums, fill. Two
	// flat allocations instead of one growing slice per state — on big
	// product machines the per-state appends used to dominate Trim.
	off := make([]int32, n+1)
	for s := 0; s < n; s++ {
		for _, e := range m.edges[s] {
			off[e.To+1]++
		}
		for _, e := range m.eps[s] {
			off[e.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	radj := make([]int32, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	for s := 0; s < n; s++ {
		for _, e := range m.edges[s] {
			radj[cur[e.To]] = int32(s)
			cur[e.To]++
		}
		for _, e := range m.eps[s] {
			radj[cur[e.To]] = int32(s)
			cur[e.To]++
		}
	}
	seen := newStateSet(n)
	seen.add(m.final)
	stack := []int32{int32(m.final)}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[off[s]:off[s+1]] {
			if !seen.contains(int(p)) {
				seen.add(int(p))
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// IsEmpty reports whether L(m) = ∅, i.e. the final state is unreachable
// from the start state. The search exits as soon as the final state is
// seen, which matters for the induce loop: span views are usually nonempty
// and a witness path is found long before the whole machine is swept.
func (m *NFA) IsEmpty() bool {
	if m.start == m.final {
		return false
	}
	seen := newStateSet(m.NumStates())
	seen.add(m.start)
	stack := []int{m.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.edges[s] {
			if e.To == m.final {
				return false
			}
			if !seen.contains(e.To) {
				seen.add(e.To)
				stack = append(stack, e.To)
			}
		}
		for _, e := range m.eps[s] {
			if e.To == m.final {
				return false
			}
			if !seen.contains(e.To) {
				seen.add(e.To)
				stack = append(stack, e.To)
			}
		}
	}
	return true
}

// Trim returns an equivalent machine containing only states that lie on some
// path from the start state to the final state. If the language is empty the
// canonical two-state empty machine is returned. Seam tags are preserved on
// surviving edges.
func (m *NFA) Trim() *NFA {
	reach := m.reachable()
	coreach := m.coreachable()
	n := m.NumStates()
	keep := make([]int, n)
	nk := 0
	for s := 0; s < n; s++ {
		if reach.contains(s) && coreach.contains(s) {
			keep[s] = nk
			nk++
		} else {
			keep[s] = -1
		}
	}
	if keep[m.start] < 0 || keep[m.final] < 0 {
		return Empty()
	}
	// Count surviving edges, then fill rows carved out of two flat backing
	// arrays: a fixed number of allocations regardless of machine size.
	totE, totP := 0, 0
	for s := 0; s < n; s++ {
		if keep[s] < 0 {
			continue
		}
		for _, e := range m.edges[s] {
			if keep[e.To] >= 0 {
				totE++
			}
		}
		for _, e := range m.eps[s] {
			if keep[e.To] >= 0 {
				totP++
			}
		}
	}
	rows := newFlatRows(nk, totE, totP)
	for s := 0; s < n; s++ {
		if keep[s] < 0 {
			continue
		}
		for _, e := range m.edges[s] {
			if keep[e.To] >= 0 {
				rows.flatE = append(rows.flatE, Edge{Label: e.Label, To: keep[e.To]})
			}
		}
		for _, e := range m.eps[s] {
			if keep[e.To] >= 0 {
				rows.flatP = append(rows.flatP, EpsEdge{To: keep[e.To], Tag: e.Tag})
			}
		}
		rows.endRow()
	}
	return rows.build(keep[m.start], keep[m.final])
}

// DropSeams returns a machine recognizing m's language over m's states with
// every tagged ε-edge removed. A string belonging to a single concatenation
// operand never crosses a seam, so induced operand machines are seam-free.
// The result is a zero-copy view over a memoized seam-stripped transition
// structure: the strip is computed once per machine (shared by all views)
// and each call afterwards costs one struct allocation.
func (m *NFA) DropSeams() *NFA {
	return m.seamFree().view(m.start, m.final)
}

// seamFree returns the machine whose transition structure is m's with every
// tagged ε-edge removed, memoized on the shared seamMemo. Character edges
// are always shared with m; ε-edge lists are shared per state unless the
// state actually carries a seam. A seam-free machine memoizes itself, so
// repeated stripping is free.
func (m *NFA) seamFree() *NFA {
	if sf := m.seamfree.p.Load(); sf != nil {
		return sf
	}
	hasSeams := false
	for s := range m.eps {
		for _, e := range m.eps[s] {
			if e.Tag != NoTag {
				hasSeams = true
				break
			}
		}
		if hasSeams {
			break
		}
	}
	sf := m
	if hasSeams {
		eps := make([][]EpsEdge, len(m.eps))
		for s := range m.eps {
			list := m.eps[s]
			tagged := false
			for _, e := range list {
				if e.Tag != NoTag {
					tagged = true
					break
				}
			}
			if !tagged {
				eps[s] = list
				continue
			}
			var kept []EpsEdge
			for _, e := range list {
				if e.Tag == NoTag {
					kept = append(kept, e)
				}
			}
			eps[s] = kept
		}
		sf = &NFA{edges: m.edges, eps: eps, start: m.start, final: m.final,
			eclo: newEcloCache(len(m.edges)), seamfree: &seamMemo{}}
		sf.seamfree.p.Store(sf)
	}
	m.seamfree.p.Store(sf)
	return sf
}

// Induce returns the seam-free sub-machine of m spanning the given start
// and final states. This generalizes the paper's induce_from_final
// (final := seam source) and induce_from_start (start := seam target) to
// arbitrary spans, which is what gci needs for variables in the middle of a
// concatenation chain. The result is a zero-copy view sharing the memoized
// seam-free structure — O(1) per call where it used to deep-copy and trim
// the whole machine — so it may carry states useless for the new span;
// callers that need a structurally trimmed machine chain .Trim(), which
// preserves the language.
func (m *NFA) Induce(start, final int) *NFA {
	return m.seamFree().view(start, final)
}

// ShortestWitness returns the shortest string in L(m), and among the
// shortest the lexicographically smallest. It reports ok=false when the
// language is empty. The choice depends only on the language, not on the
// machine's structure, so equivalent machines — however constructed —
// yield byte-identical witnesses.
func (m *NFA) ShortestWitness() (string, bool) {
	// Minimal byte-distance from each state to final: 0/1 BFS over the
	// reversed machine, ε-edges costing 0 and labelled edges 1.
	const inf = int(^uint(0) >> 1)
	n := m.NumStates()
	type rev struct {
		from   int
		byByte bool
	}
	radj := make([][]rev, n)
	for s := 0; s < n; s++ {
		for _, e := range m.eps[s] {
			radj[e.To] = append(radj[e.To], rev{from: s})
		}
		for _, e := range m.edges[s] {
			if !e.Label.IsEmpty() {
				radj[e.To] = append(radj[e.To], rev{from: s, byByte: true})
			}
		}
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[m.final] = 0
	deque := make([]int, 0, n)
	deque = append(deque, m.final)
	for len(deque) > 0 {
		v := deque[0]
		deque = deque[1:]
		for _, r := range radj[v] {
			d := dist[v]
			if r.byByte {
				d++
			}
			if d < dist[r.from] {
				dist[r.from] = d
				if r.byByte {
					deque = append(deque, r.from)
				} else {
					deque = append([]int{r.from}, deque...)
				}
			}
		}
	}

	minDist := func(set stateSet) int {
		d := inf
		set.forEach(func(s int) {
			if dist[s] < d {
				d = dist[s]
			}
		})
		return d
	}

	// Greedy walk over the on-the-fly subset construction: at each step
	// take the smallest byte that still lies on a shortest path.
	set := m.startClosure()
	remaining := minDist(set)
	if remaining == inf {
		return "", false
	}
	out := make([]byte, 0, remaining)
	for ; remaining > 0; remaining-- {
		avail := EmptySet()
		set.forEach(func(s int) {
			for _, e := range m.edges[s] {
				avail = avail.Union(e.Label)
			}
		})
		advanced := false
		for _, b := range avail.Bytes() {
			next := m.step(set, b)
			if minDist(next) == remaining-1 {
				out = append(out, b)
				set = next
				advanced = true
				break
			}
		}
		if !advanced {
			// Unreachable when dist is consistent; fail closed.
			return "", false
		}
	}
	return string(out), true
}

// Enumerate returns accepted strings of length ≤ maxLen, up to maxCount of
// them, in length-then-lexicographic order. It is intended for tests and
// small languages; the traversal explores the deterministic subset
// construction on the fly.
func (m *NFA) Enumerate(maxLen, maxCount int) []string {
	var out []string
	type item struct {
		set stateSet
		str string
	}
	start := m.startClosure()
	queue := []item{{set: start, str: ""}}
	for len(queue) > 0 && len(out) < maxCount {
		it := queue[0]
		queue = queue[1:]
		if it.set.contains(m.final) {
			out = append(out, it.str)
			if len(out) >= maxCount {
				break
			}
		}
		if len(it.str) >= maxLen {
			continue
		}
		avail := EmptySet()
		it.set.forEach(func(s int) {
			for _, e := range m.edges[s] {
				avail = avail.Union(e.Label)
			}
		})
		for _, b := range avail.Bytes() {
			next := m.step(it.set, b)
			if !next.isEmpty() {
				queue = append(queue, item{set: next, str: it.str + string([]byte{b})})
			}
		}
	}
	return out
}
