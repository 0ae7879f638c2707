package nfa

import (
	"dprle/internal/budget"
)

// DFA is a deterministic, complete automaton over alphabet atoms. Each state
// has exactly one outgoing transition per atom class, and the atom classes
// partition Σ, so every byte has exactly one successor. DFAs are produced by
// Determinize and consumed by Complement, Minimize, and the inclusion/
// equivalence checks.
type DFA struct {
	atoms  []CharSet  // pairwise-disjoint classes covering Σ
	atomOf [256]uint8 // byte → index into atoms, precomputed at construction
	trans  [][]int    // trans[state][atomIndex] = successor state
	accept []bool
	start  int
}

// newDFA assembles a DFA and precomputes its byte→atom dispatch table, so
// membership runs one table lookup per input byte instead of a linear scan
// over the atom classes. atoms must partition Σ (Partition guarantees it),
// so every byte lands in exactly one class and the table is total.
func newDFA(atoms []CharSet, trans [][]int, accept []bool, start int) *DFA {
	d := &DFA{atoms: atoms, trans: trans, accept: accept, start: start}
	for i, a := range atoms {
		for _, c := range a.Bytes() {
			d.atomOf[c] = uint8(i)
		}
	}
	return d
}

// NumStates returns the number of DFA states (including any dead state).
func (d *DFA) NumStates() int { return len(d.trans) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// Accepting reports whether state s is accepting.
func (d *DFA) Accepting(s int) bool { return d.accept[s] }

// Atoms returns the alphabet partition the DFA is defined over.
func (d *DFA) Atoms() []CharSet { return d.atoms }

// Accepts reports whether the DFA accepts w.
func (d *DFA) Accepts(w string) bool {
	s := d.start
	for i := 0; i < len(w); i++ {
		s = d.trans[s][d.atomOf[w[i]]]
	}
	return d.accept[s]
}

// Determinize applies the subset construction to m, producing a complete
// DFA over the atom partition induced by m's edge labels.
func Determinize(m *NFA) *DFA {
	d, _ := DeterminizeB(nil, m) // nil budget cannot fail (see budget.Budget)
	return d
}

// DeterminizeB is Determinize under a resource budget: each DFA state the
// subset construction materializes is accounted against bud, and the
// construction aborts with the budget's *Exhausted error when the budget
// trips. Determinization is the solver's worst-case-exponential step (the
// complement-based subset and maximality machinery all route through it),
// so this is where state caps bite first.
//
// Each subset is keyed by its members rather than by a bitset as wide as
// the machine, and successors are gathered in one reused bitset, so a step
// costs time in the size of the subsets it touches: a subset of a literal's
// chain is one state, whatever the length of the literal.
func DeterminizeB(bud *budget.Budget, m *NFA) (*DFA, error) {
	atoms := Partition(m.allLabels())
	next := newSubsetBuffer(m.NumStates())
	idx := map[string]int{}
	var sets []string // sets[q] is the key of DFA state q's subset
	var trans [][]int
	var accept []bool
	// add interns the subset gathered in next and empties next.
	add := func() int {
		final := next.set.contains(m.final)
		key := next.take()
		if id, ok := idx[string(key)]; ok {
			return id
		}
		k := string(key)
		id := len(sets)
		idx[k] = id
		sets = append(sets, k)
		trans = append(trans, make([]int, len(atoms)))
		accept = append(accept, final)
		return id
	}
	next.enter(m, m.start)
	add()
	for qi := 0; qi < len(sets); qi++ {
		// One probe per expanded DFA state, which also bounds the time
		// between context polls.
		if err := bud.AddStates(1, "nfa.determinize"); err != nil {
			return nil, err
		}
		cur := sets[qi]
		for ai, atom := range atoms {
			// All bytes within an atom behave identically, so step on the
			// atom's minimum representative.
			rep, ok := atom.Min()
			if !ok {
				continue
			}
			for i := 0; i < len(cur); i += 4 {
				for _, e := range m.edges[keyState(cur, i)] {
					if e.Label.Contains(rep) {
						next.enter(m, e.To)
					}
				}
			}
			trans[qi][ai] = add()
		}
	}
	return newDFA(atoms, trans, accept, 0), nil
}

// Complement returns a DFA recognizing Σ* \ L(d).
func (d *DFA) Complement() *DFA {
	accept := make([]bool, len(d.accept))
	for i, a := range d.accept {
		accept[i] = !a
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: d.trans, accept: accept, start: d.start}
}

// IsEmpty reports whether L(d) = ∅.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates())
	seen[d.start] = true
	stack := []int{d.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.accept[s] {
			return false
		}
		for _, t := range d.trans[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

// Minimize returns the canonical minimal DFA for L(d).
func (d *DFA) Minimize() *DFA {
	m, _ := d.MinimizeB(nil) // nil budget cannot fail (see budget.Budget)
	return m
}

// minimizeCheckEvery is how many splitters MinimizeB processes between
// budget checkpoints.
const minimizeCheckEvery = 256

// MinimizeB is Minimize under a resource budget. It is Hopcroft's partition
// refinement (Hopcroft 1971) over the DFA's atom classes, on the refinable
// partition of Valmari & Lehtinen (STACS 2008): starting from accepting vs.
// non-accepting, each splitter block cuts every block into the states that
// do and do not enter it on an atom, and only the smaller half of a cut
// becomes a new splitter. A state therefore enters O(log n) splitters, and
// the refinement costs O(n·k·log n) for n states and k atoms, where Moore's
// round-by-round refinement needs up to n rounds of O(n·k) each (a chain
// of n states needs all n). It checkpoints the nfa.minimize stage on entry
// and after every minimizeCheckEvery splitters.
//
// Classes are numbered as Moore's refinement numbers them: an unrefined
// partition keeps non-accepting states at 0 and accepting states at 1, and
// a refined one is numbered by first member in state order. The minimal DFA
// is then the same machine state for state, so the machines built from it,
// and the order in which the solver enumerates their seams, do not depend
// on the refinement algorithm.
func (d *DFA) MinimizeB(bud *budget.Budget) (*DFA, error) {
	if err := bud.Check("nfa.minimize"); err != nil {
		return nil, err
	}
	n, k := d.NumStates(), len(d.atoms)
	// The inverse transition function, flattened: the states whose atom-a
	// transition enters t are pred[at[a*n+t]:at[a*n+t+1]], in state order.
	at := make([]int, n*k+1)
	for _, row := range d.trans {
		for a, t := range row {
			at[a*n+t+1]++
		}
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	pred := make([]int, n*k)
	for q, row := range d.trans {
		for a, t := range row {
			pred[at[a*n+t]] = q
			at[a*n+t]++
		}
	}
	copy(at[1:], at[:n*k]) // the fill advanced each start to the next one's
	at[0] = 0

	p := newBlocks(d.accept)
	initial := len(p.first)
	var work []int
	if initial == 2 {
		// The whole state set splits nothing in a complete DFA, so one of
		// accepting/non-accepting suffices as the first splitter.
		if p.size(0) <= p.size(1) {
			work = append(work, 0)
		} else {
			work = append(work, 1)
		}
	}
	var splitter []int
	for popped := 0; len(work) > 0; popped++ {
		if popped > 0 && popped%minimizeCheckEvery == 0 {
			if err := bud.Check("nfa.minimize"); err != nil {
				return nil, err
			}
		}
		b := work[len(work)-1]
		work = work[:len(work)-1]
		// Snapshot the splitter: cutting by a set that was a block stays
		// sound after the block itself is cut, and its new half is queued.
		splitter = append(splitter[:0], p.elems[p.first[b]:p.end[b]]...)
		for a := 0; a < k; a++ {
			for _, t := range splitter {
				for _, q := range pred[at[a*n+t]:at[a*n+t+1]] {
					p.mark(q)
				}
			}
			// A cut block's smaller half is always queued: if the block
			// was queued, both halves now are; if not, Hopcroft's rule
			// queues only the smaller one.
			work = p.split(work)
		}
	}

	class := p.of
	numClasses := len(p.first)
	if numClasses > initial {
		ren := make([]int, numClasses)
		for i := range ren {
			ren[i] = -1
		}
		class = make([]int, n)
		next := 0
		for s, b := range p.of {
			if ren[b] < 0 {
				ren[b] = next
				next++
			}
			class[s] = ren[b]
		}
	}
	trans := make([][]int, numClasses)
	accept := make([]bool, numClasses)
	flat := make([]int, numClasses*k)
	for s := 0; s < n; s++ {
		c := class[s]
		if trans[c] != nil {
			continue
		}
		row := flat[c*k : (c+1)*k : (c+1)*k]
		for a, t := range d.trans[s] {
			row[a] = class[t]
		}
		trans[c] = row
		accept[c] = d.accept[s]
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: trans, accept: accept, start: class[d.start]}, nil
}

// blocks is a refinable partition of DFA states (Valmari & Lehtinen): each
// block's states sit contiguously in elems, with its marked states gathered
// at the front of its range, so cutting the marked part off a block moves
// no state between ranges and relabels only the states of the new block.
type blocks struct {
	elems      []int // states, grouped by block
	loc        []int // loc[s] is the position of s in elems
	of         []int // of[s] is the block of s
	first, end []int // block b holds elems[first[b]:end[b]]
	mid        []int // elems[first[b]:mid[b]] are b's marked states
	touched    []int // blocks with a marked state
}

// newBlocks partitions the states into non-accepting (block 0 when there
// is one) and accepting, leaving out an empty side.
func newBlocks(accept []bool) *blocks {
	n := len(accept)
	p := &blocks{elems: make([]int, 0, n), loc: make([]int, n), of: make([]int, n)}
	for _, side := range []bool{false, true} {
		lo := len(p.elems)
		for s, a := range accept {
			if a == side {
				p.loc[s], p.of[s] = len(p.elems), len(p.first)
				p.elems = append(p.elems, s)
			}
		}
		if len(p.elems) > lo {
			p.first = append(p.first, lo)
			p.end = append(p.end, len(p.elems))
			p.mid = append(p.mid, lo)
		}
	}
	return p
}

func (p *blocks) size(b int) int { return p.end[b] - p.first[b] }

// mark moves s into the marked front of its block.
func (p *blocks) mark(s int) {
	b, i := p.of[s], p.loc[s]
	m := p.mid[b]
	if i < m {
		return
	}
	if m == p.first[b] {
		p.touched = append(p.touched, b)
	}
	o := p.elems[m]
	p.elems[i], p.elems[m] = o, s
	p.loc[o], p.loc[s] = i, m
	p.mid[b] = m + 1
}

// split cuts every touched block into its marked and unmarked states,
// unless all of them are marked. The smaller part becomes a new block,
// whose id split appends to work; the larger keeps the old id.
func (p *blocks) split(work []int) []int {
	for _, b := range p.touched {
		lo, m, hi := p.first[b], p.mid[b], p.end[b]
		p.mid[b] = lo
		if m == hi {
			continue
		}
		nb := len(p.first)
		if m-lo <= hi-m {
			p.first, p.end, p.mid = append(p.first, lo), append(p.end, m), append(p.mid, lo)
			p.first[b], p.mid[b] = m, m
		} else {
			p.first, p.end, p.mid = append(p.first, m), append(p.end, hi), append(p.mid, m)
			p.end[b] = m
		}
		for _, s := range p.elems[p.first[nb]:p.end[nb]] {
			p.of[s] = nb
		}
		work = append(work, nb)
	}
	p.touched = p.touched[:0]
	return work
}

// ToNFA converts d back to a (single-start, single-final) NFA, introducing a
// fresh final state joined by ε-edges from each accepting state.
func (d *DFA) ToNFA() *NFA {
	bl := NewBuilder()
	bl.AddStates(d.NumStates())
	f := bl.AddState()
	for s := 0; s < d.NumStates(); s++ {
		for ai, t := range d.trans[s] {
			bl.AddEdge(s, d.atoms[ai], t)
		}
		if d.accept[s] {
			bl.AddEps(s, f)
		}
	}
	return bl.Build(d.start, f).Trim()
}

// Complement returns an NFA for Σ* \ L(m).
func Complement(m *NFA) *NFA {
	return Determinize(m).Complement().ToNFA()
}

// ComplementB is Complement under a resource budget (the determinization it
// routes through is the expensive part).
func ComplementB(bud *budget.Budget, m *NFA) (*NFA, error) {
	d, err := DeterminizeB(bud, m)
	if err != nil {
		return nil, err
	}
	return d.Complement().ToNFA(), nil
}

// Minimized returns an equivalent NFA with the minimal deterministic state
// count. The paper notes (§4) that applying minimization to intermediate
// machines can improve the pathological cases; the solver exposes this as an
// option.
func Minimized(m *NFA) *NFA {
	return Determinize(m).Minimize().ToNFA()
}

// MinimizedB is Minimized under a resource budget.
func MinimizedB(bud *budget.Budget, m *NFA) (*NFA, error) {
	d, err := DeterminizeB(bud, m)
	if err != nil {
		return nil, err
	}
	md, err := d.MinimizeB(bud)
	if err != nil {
		return nil, err
	}
	return md.ToNFA(), nil
}
