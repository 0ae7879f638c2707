package nfa

// Language-analysis utilities: finiteness, word-length bounds, counting, and
// deterministic sampling. These support the experiment harness (reporting),
// the property-test suites (exhaustiveness bounds), and clients that want to
// inspect solver output beyond a single witness.

// IsInfinite reports whether L(m) is infinite: the trimmed machine contains
// a cycle reachable on a start–final path.
func (m *NFA) IsInfinite() bool {
	t := m.Trim()
	if t.IsEmpty() {
		return false
	}
	// DFS cycle detection over all (useful) states.
	const (
		unseen = 0
		onPath = 1
		done   = 2
	)
	state := make([]int, t.NumStates())
	var visit func(s int) bool
	visit = func(s int) bool {
		state[s] = onPath
		for _, e := range t.edges[s] {
			switch state[e.To] {
			case onPath:
				return true
			case unseen:
				if visit(e.To) {
					return true
				}
			}
		}
		for _, e := range t.eps[s] {
			switch state[e.To] {
			case onPath:
				return true
			case unseen:
				if visit(e.To) {
					return true
				}
			}
		}
		state[s] = done
		return false
	}
	return visit(t.start)
}

// MinWordLength returns the length of a shortest member, reporting ok=false
// for the empty language.
func (m *NFA) MinWordLength() (int, bool) {
	w, ok := m.ShortestWitness()
	if !ok {
		return 0, false
	}
	return len(w), true
}

// MaxWordLength returns the length of a longest member, with ok=false for
// the empty language and infinite=true when the language is infinite.
func (m *NFA) MaxWordLength() (length int, infinite, ok bool) {
	t := m.Trim()
	if t.IsEmpty() {
		return 0, false, false
	}
	if t.IsInfinite() {
		return 0, true, true
	}
	// Longest path in a DAG (after ε-elimination the trimmed machine of a
	// finite language is acyclic in its character edges; ε-cycles cannot
	// exist on useful paths of a finite language either, but guard anyway).
	memo := make([]int, t.NumStates())
	seen := make([]bool, t.NumStates())
	var longest func(s int) int
	longest = func(s int) int {
		if seen[s] {
			return memo[s]
		}
		seen[s] = true
		best := -1 << 30
		if s == t.final {
			best = 0
		}
		for _, e := range t.edges[s] {
			if v := longest(e.To); v+1 > best {
				best = v + 1
			}
		}
		for _, e := range t.eps[s] {
			if v := longest(e.To); v > best {
				best = v
			}
		}
		memo[s] = best
		return best
	}
	return longest(t.start), false, true
}

// CountWords returns the number of distinct members of each length
// 0..maxLen, computed on the determinized machine so nondeterministic
// duplicates are not double-counted.
func (m *NFA) CountWords(maxLen int) []int {
	d, _ := DeterminizeB(nil, m) // nil budget cannot fail (see budget.Budget)
	// dist[s] = number of distinct strings of the current length reaching s.
	dist := make([]int, d.NumStates())
	dist[d.start] = 1
	counts := make([]int, maxLen+1)
	for l := 0; ; l++ {
		total := 0
		for s, n := range dist {
			if d.accept[s] {
				total += n
			}
		}
		counts[l] = total
		if l == maxLen {
			return counts
		}
		next := make([]int, d.NumStates())
		for s, n := range dist {
			if n == 0 {
				continue
			}
			for ai, to := range d.trans[s] {
				next[to] += n * d.atoms[ai].Count()
			}
		}
		dist = next
	}
}

// SampleMember returns a pseudo-random member of the language derived from
// the given seed, or ok=false for the empty language. Sampling is
// deterministic per seed, walking the trimmed machine and biasing toward
// termination so samples stay short.
func (m *NFA) SampleMember(seed uint64) (string, bool) {
	t := m.Trim()
	if t.IsEmpty() {
		return "", false
	}
	coreach := t.coreachable()
	rng := seed*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	var out []byte
	s := t.start
	for steps := 0; steps < 4096; steps++ {
		// Prefer stopping when we are at the final state.
		if s == t.final && (len(out) > 64 || next(3) != 0) {
			return string(out), true
		}
		type move struct {
			to   int
			b    byte
			char bool
		}
		var moves []move
		for _, e := range t.edges[s] {
			if !coreach.contains(e.To) {
				continue
			}
			bs := e.Label.Bytes()
			moves = append(moves, move{to: e.To, b: bs[next(len(bs))], char: true})
		}
		for _, e := range t.eps[s] {
			if coreach.contains(e.To) {
				moves = append(moves, move{to: e.To})
			}
		}
		if len(moves) == 0 {
			if s == t.final {
				return string(out), true
			}
			return "", false // cannot happen on a trimmed machine
		}
		mv := moves[next(len(moves))]
		if mv.char {
			out = append(out, mv.b)
		}
		s = mv.to
	}
	// Fell off the step budget: fall back to the shortest witness.
	return t.ShortestWitness()
}
