package core

import (
	"fmt"
	"sort"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
	"dprle/internal/nfa"
	"dprle/internal/solvecache"
)

// gci implements the generalized concat-intersect procedure of Fig. 8: it
// solves one CI-group — a set of variable and temp vertices connected by
// ⋈-edges — producing the set of disjunctive node-to-NFA solutions.
//
// The implementation follows the paper's two invariants:
//
//  1. Operation ordering: inbound subset constraints are processed before
//     concatenation constraints. Variables are intersected with their
//     constraining constants first; each temp's machine is intersected with
//     its constraining constants before the temp participates in an outer
//     concatenation.
//
//  2. Shared solution representation: the solution for a variable is a
//     sub-NFA of a larger "root" machine, delimited by seam ε-edges. Because
//     the cross-product construction preserves seam tags, every intersection
//     applied to a root machine is automatically reflected in the sub-NFAs
//     of all operands — the pointer-sharing of the paper realized through
//     tag propagation.
//
// A variable shared between several concat trees (Fig. 9's vb) has one
// induced sub-NFA per occurrence; for each combination of seam choices, the
// variable's language is the intersection of its occurrence machines, and
// the combination is kept only if every group variable is nonempty and the
// assignment verifies against every constraint in the group (paper §3.4.4:
// "for each candidate solution we must ensure that [vb] satisfies both
// constraints").
type gciSolver struct {
	g     *Graph
	opts  Options
	canon *constCache
	bud   *budget.Budget // resource budget; nil means unlimited

	varLang map[int]*nfa.NFA // var node → language after inbound subsets
	built   map[int]*nfa.NFA // temp node → machine with seam tags
}

// constCache canonicalizes constant languages (unless Options.RawConstants)
// and memoizes the result per constant. Canonicalization is a pure
// optimization — the minimal DFA recognizes the same language — so when the
// budget trips mid-minimization the cache degrades to the raw constant
// machine instead of failing the solve.
//
// The per-solve map (keyed by *Const identity) is the first level; when the
// solve carries a shared solvecache.Cache, minimized constants are also
// memoized across solves under the raw machine's canonical key, so a
// constant's minimization cost is paid once per structure process-wide
// rather than once per solve.
//
// The cache also serves each constant's complement, memoized per solve:
// the subset checks of gci and maximalization test a language against a
// constant as emptiness against its complement. A constant minimized in
// this solve keeps its minimal DFA, whose complement is the same machine
// with its accepting states flipped, so the constant is determinized once
// per cache: once per solve, plus once in each CI-group solved concurrently
// on its own cache. The memo lives here rather than on the shared machine,
// so a solve's Usage does not depend on which solve complemented it first.
type constCache struct {
	raw    bool
	bud    *budget.Budget
	canon  map[*Const]*constForms
	shared *solvecache.Cache
}

// constForms holds the forms of one constant a solve has derived.
type constForms struct {
	m   *nfa.NFA // the canonical machine, or the raw one (RawConstants)
	dfa *nfa.DFA // m's minimal DFA; nil when m came from the shared cache or is raw
	not *nfa.NFA // the complement of m, once asked for
}

func newConstCache(opts Options, bud *budget.Budget) *constCache {
	return &constCache{raw: opts.RawConstants, bud: bud, canon: map[*Const]*constForms{}, shared: opts.Cache}
}

func (cc *constCache) get(c *Const) *nfa.NFA {
	return cc.forms(c).m
}

// complement returns a machine for Σ* \ L(c). Only the complement of a
// machine without a minimal DFA at hand costs a determinization.
func (cc *constCache) complement(c *Const) (*nfa.NFA, error) {
	f := cc.forms(c)
	if f.not != nil {
		return f.not, nil
	}
	if f.dfa != nil {
		f.not = f.dfa.Complement().ToNFA()
		return f.not, nil
	}
	not, err := nfa.ComplementB(cc.bud, f.m)
	if err != nil {
		return nil, err
	}
	f.not = not
	return not, nil
}

// forms returns the memoized forms of c. A degraded constant (the budget
// tripped mid-minimization) is served raw and not memoized.
func (cc *constCache) forms(c *Const) *constForms {
	if f, ok := cc.canon[c]; ok {
		return f
	}
	if cc.raw {
		f := &constForms{m: c.Lang}
		cc.canon[c] = f
		return f
	}
	var key string
	if cc.shared != nil {
		key = solvecache.Key("const", c.Lang.CanonicalKey())
		if v, ok := cc.shared.Get(key); ok {
			f := &constForms{m: v.(*nfa.NFA)}
			cc.canon[c] = f
			return f
		}
	}
	d, err := nfa.DeterminizeB(cc.bud, c.Lang)
	if err == nil {
		d, err = d.MinimizeB(cc.bud)
	}
	if err != nil {
		return &constForms{m: c.Lang} // budget tripped: degrade to the equivalent raw machine
	}
	f := &constForms{m: d.ToNFA(), dfa: d}
	cc.canon[c] = f
	if cc.shared != nil && cc.bud.Err() == nil {
		cc.shared.Put(key, f.m, machineCost(f.m))
	}
	return f
}

// rootInfo describes one root machine of the group: a temp vertex that is
// not an operand of any other concatenation (the paper's "non-influenced
// node"), its concat-tree leaves in order, and the seam tags between them.
type rootInfo struct {
	temp   int
	m      *nfa.NFA
	leaves []int // node ids of the k leaves (vars or consts)
	seams  []int // k-1 seam tags in leaf order
	// choices enumerates, per seam position, the candidate seam edges found
	// in the trimmed root machine.
	choices [][]nfa.TaggedEdge
}

// occurrence ties a group variable to one leaf position of one root.
type occurrence struct {
	root int // index into roots
	leaf int // leaf position within the root
}

// solveGroup runs gci on the given CI-group. It returns the disjunctive
// solutions as maps from variable node id to language, and whether seam
// enumeration was truncated by the MaxCombos bound. An empty result means
// the group admits no assignment with all variables nonempty, which the
// worklist treats as "no assignments found" (Fig. 7, line 23).
func (s *gciSolver) solveGroup(group []int) ([]map[int]*nfa.NFA, error) {
	sols, _, err := s.solveGroupTrunc(group)
	return sols, err
}

// solveGroupTrunc solves one CI-group under the solver's budget. When the
// budget trips mid-group it returns the (verified) solutions found so far
// together with the budget's *Exhausted error; callers treat those partial
// solutions as genuine satisfying disjuncts whose enumeration is incomplete.
func (s *gciSolver) solveGroupTrunc(group []int) ([]map[int]*nfa.NFA, bool, error) {
	inGroup := map[int]bool{}
	for _, id := range group {
		inGroup[id] = true
	}

	// Stage 1 (ordering invariant): inbound subset constraints on variables.
	for _, id := range group {
		if err := s.bud.Check("gci.var-subsets"); err != nil {
			return nil, false, err
		}
		n := s.g.Nodes[id]
		if n.Kind != VarNode {
			continue
		}
		lang := nfa.AnyString()
		for _, c := range s.g.SubsetsInto(id) {
			li, err := nfa.IntersectB(s.bud, lang, s.canon.get(c))
			if err != nil {
				return nil, false, err
			}
			lang = li.Trim()
		}
		s.varLang[id] = s.maybeMin(lang)
	}

	// Stage 2: build temp machines bottom-up, applying each temp's inbound
	// subset constraints as soon as the temp's machine exists.
	order, err := s.topoTemps(group)
	if err != nil {
		return nil, false, err
	}
	for _, tid := range order {
		if err := s.bud.Check("gci.temps"); err != nil {
			return nil, false, err
		}
		pair, ok := s.g.pairByResult(tid)
		if !ok {
			return nil, false, fmt.Errorf("core: temp node %d has no defining concat pair", tid)
		}
		left, err := s.operandMachine(pair.Left)
		if err != nil {
			return nil, false, err
		}
		right, err := s.operandMachine(pair.Right)
		if err != nil {
			return nil, false, err
		}
		m := nfa.ConcatTagged(left, right, pair.Tag)
		for _, c := range s.g.SubsetsInto(tid) {
			mi, err := nfa.IntersectB(s.bud, m, s.canon.get(c))
			if err != nil {
				return nil, false, err
			}
			m = mi.Trim()
		}
		s.built[tid] = m
	}

	// Stage 3: identify roots and their leaf/seam structure, then enumerate
	// seam choices per root.
	var roots []*rootInfo
	occs := map[int][]occurrence{} // var node → occurrences
	for _, tid := range order {
		if len(s.g.pairsUsing(tid)) > 0 {
			continue // influenced node: embedded in a larger machine
		}
		ri := &rootInfo{temp: tid, m: s.built[tid].Trim()}
		ri.leaves, ri.seams = s.leafSpans(tid)
		edgesByTag := map[int][]nfa.TaggedEdge{}
		for _, e := range ri.m.TaggedEdges() {
			edgesByTag[e.Tag] = append(edgesByTag[e.Tag], e)
		}
		for _, tag := range ri.seams {
			edges := edgesByTag[tag]
			if len(edges) == 0 {
				// Some seam cannot be crossed: the root's language is empty,
				// so the group has no all-nonempty assignment.
				return nil, false, nil
			}
			ri.choices = append(ri.choices, edges)
		}
		rootIdx := len(roots)
		roots = append(roots, ri)
		for leafIdx, leaf := range ri.leaves {
			if s.g.Nodes[leaf].Kind == VarNode {
				occs[leaf] = append(occs[leaf], occurrence{root: rootIdx, leaf: leafIdx})
			}
		}
	}
	if len(roots) == 0 {
		return nil, false, fmt.Errorf("core: CI-group %v has no root", group)
	}

	// Stage 4: enumerate combinations of seam choices across all roots and
	// reconcile shared variables. Solutions appended before a budget trip are
	// already verified (comboSatisfies passed), so they are returned alongside
	// the error as a usable partial result.
	combos, truncated := s.enumerateCombos(roots)
	var solutions []map[int]*nfa.NFA
	seen := map[string]bool{}
	for ci, combo := range combos {
		if faultinject.Fire(faultinject.GCIPop) {
			return solutions, truncated, s.bud.Inject("gci.pop")
		}
		if err := s.bud.Check("gci.combos"); err != nil {
			return solutions, truncated, err
		}
		sol, ok, err := s.evalCombo(roots, combo, occs)
		if err != nil {
			return solutions, truncated, err
		}
		if !ok {
			continue
		}
		ok, err = s.comboSatisfies(group, sol)
		if err != nil {
			return solutions, truncated, err
		}
		if !ok {
			continue
		}
		key := s.solutionKey(sol, ci)
		if seen[key] {
			continue
		}
		seen[key] = true
		solutions = append(solutions, sol)
	}
	return s.pruneSubsumed(solutions), truncated, nil
}

// maybeMin minimizes a machine when the Minimize option is on. Minimization
// is language-preserving, so on budget exhaustion it degrades to the input
// machine rather than failing the solve.
func (s *gciSolver) maybeMin(m *nfa.NFA) *nfa.NFA {
	if s.opts.Minimize {
		mm, err := nfa.MinimizedB(s.bud, m)
		if err != nil {
			return m
		}
		return mm
	}
	return m
}

// operandMachine returns the machine feeding a concat operand: a constant's
// language, a variable's post-subset language, or a previously built temp.
func (s *gciSolver) operandMachine(id int) (*nfa.NFA, error) {
	n := s.g.Nodes[id]
	switch n.Kind {
	case ConstNode:
		return s.canon.get(n.Con), nil
	case VarNode:
		if m, ok := s.varLang[id]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("core: variable %s used before its subsets were applied", n.Name)
	case TempNode:
		if m, ok := s.built[id]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("core: temp %s used before it was built", n.Name)
	}
	return nil, fmt.Errorf("core: unknown node kind %v", n.Kind)
}

// topoTemps orders the group's temp nodes so operands precede results
// (Fig. 8, line 2). Each temp is the result of exactly one pair and the
// operand of at most one, so the pairs form a forest and a simple
// depth-count sort suffices.
func (s *gciSolver) topoTemps(group []int) ([]int, error) {
	depth := map[int]int{}
	var measure func(id int) (int, error)
	measure = func(id int) (int, error) {
		if d, ok := depth[id]; ok {
			if d < 0 {
				return 0, fmt.Errorf("core: cyclic concatenation structure at node %d", id)
			}
			return d, nil
		}
		n := s.g.Nodes[id]
		if n.Kind != TempNode {
			return 0, nil
		}
		depth[id] = -1 // in progress
		pair, ok := s.g.pairByResult(id)
		if !ok {
			return 0, fmt.Errorf("core: temp node %d has no defining pair", id)
		}
		dl, err := measure(pair.Left)
		if err != nil {
			return 0, err
		}
		dr, err := measure(pair.Right)
		if err != nil {
			return 0, err
		}
		d := 1 + max(dl, dr)
		depth[id] = d
		return d, nil
	}
	var temps []int
	for _, id := range group {
		if s.g.Nodes[id].Kind == TempNode {
			if _, err := measure(id); err != nil {
				return nil, err
			}
			temps = append(temps, id)
		}
	}
	// Sort ascending by depth (stable on id for determinism).
	for i := 1; i < len(temps); i++ {
		for j := i; j > 0; j-- {
			a, b := temps[j], temps[j-1]
			if depth[a] < depth[b] || (depth[a] == depth[b] && a < b) {
				temps[j], temps[j-1] = temps[j-1], temps[j]
			} else {
				break
			}
		}
	}
	return temps, nil
}

// leafSpans returns the in-order leaves of the concat tree rooted at temp
// and the seam tags separating consecutive leaves.
func (s *gciSolver) leafSpans(temp int) (leaves []int, seams []int) {
	var walk func(id int)
	walk = func(id int) {
		if s.g.Nodes[id].Kind == TempNode {
			pair, _ := s.g.pairByResult(id)
			walk(pair.Left)
			seams = append(seams, pair.Tag)
			walk(pair.Right)
			return
		}
		leaves = append(leaves, id)
	}
	walk(temp)
	return leaves, seams
}

// comboChoice holds, per root, the chosen seam edge for each seam position.
type comboChoice [][]nfa.TaggedEdge

// enumerateCombos produces the Cartesian product of seam choices across all
// roots (the all_combinations step of Fig. 8), capped at opts.maxCombos();
// truncated reports whether the cap cut enumeration short. Enumeration works
// like an odometer over the flattened (root, seam) slots.
func (s *gciSolver) enumerateCombos(roots []*rootInfo) (combos []comboChoice, truncated bool) {
	limit := s.opts.maxCombos()
	type slot struct {
		root, seam int
		edges      []nfa.TaggedEdge
	}
	var slots []slot
	for ri, root := range roots {
		for si, edges := range root.choices {
			slots = append(slots, slot{root: ri, seam: si, edges: edges})
		}
	}
	idx := make([]int, len(slots))
	for {
		c := make(comboChoice, len(roots))
		for ri, root := range roots {
			c[ri] = make([]nfa.TaggedEdge, len(root.seams))
		}
		for k, sl := range slots {
			c[sl.root][sl.seam] = sl.edges[idx[k]]
		}
		combos = append(combos, c)
		// Advance the odometer.
		k := 0
		for ; k < len(slots); k++ {
			idx[k]++
			if idx[k] < len(slots[k].edges) {
				break
			}
			idx[k] = 0
		}
		if k == len(slots) {
			return combos, false // enumeration complete
		}
		if len(combos) >= limit {
			return combos, true
		}
	}
}

// evalCombo computes the candidate assignment induced by one combination of
// seam choices: every leaf span is sliced out of its root machine, and each
// variable receives the intersection of its occurrence machines. It reports
// ok=false when any span or variable comes out empty, and a non-nil error
// when the budget trips mid-intersection.
func (s *gciSolver) evalCombo(roots []*rootInfo, combo comboChoice, occs map[int][]occurrence) (map[int]*nfa.NFA, bool, error) {
	// spanMachine(root r, leaf i) = Induce(prevSeam.To | start, nextSeam.From | final).
	spans := make([][]*nfa.NFA, len(roots))
	for ri, root := range roots {
		spans[ri] = make([]*nfa.NFA, len(root.leaves))
		for li := range root.leaves {
			from := root.m.Start()
			if li > 0 {
				from = combo[ri][li-1].To
			}
			to := root.m.Final()
			if li < len(root.seams) {
				to = combo[ri][li].From
			}
			sp := root.m.Induce(from, to)
			if sp.IsEmpty() {
				return nil, false, nil
			}
			spans[ri][li] = sp
		}
	}
	sol := map[int]*nfa.NFA{}
	// Sorted order keeps budget accounting deterministic: which variable's
	// intersection trips an exhausted budget first must not depend on map
	// iteration order.
	varIDs := make([]int, 0, len(occs))
	for varID := range occs {
		varIDs = append(varIDs, varID)
	}
	sort.Ints(varIDs)
	for _, varID := range varIDs {
		os := occs[varID]
		machines := make([]*nfa.NFA, 0, len(os))
		for _, o := range os {
			machines = append(machines, spans[o.root][o.leaf])
		}
		li, err := nfa.IntersectAllB(s.bud, machines...)
		if err != nil {
			return nil, false, err
		}
		lang := li.Trim()
		if lang.IsEmpty() {
			return nil, false, nil
		}
		sol[varID] = s.maybeMin(lang)
	}
	return sol, true, nil
}

// comboSatisfies verifies a candidate assignment against every subset
// constraint whose left-hand side lies in the group: each temp's language,
// rebuilt from the assignment (constants fixed), must be contained in all of
// its constraining constants. Variable-level constraints hold by
// construction (spans are sub-machines of post-subset operand machines).
func (s *gciSolver) comboSatisfies(group []int, sol map[int]*nfa.NFA) (bool, error) {
	var evalNode func(id int) *nfa.NFA
	memo := map[int]*nfa.NFA{}
	evalNode = func(id int) *nfa.NFA {
		if m, ok := memo[id]; ok {
			return m
		}
		n := s.g.Nodes[id]
		var m *nfa.NFA
		switch n.Kind {
		case ConstNode:
			m = s.canon.get(n.Con)
		case VarNode:
			m = sol[id]
			if m == nil {
				m = s.varLang[id]
			}
		case TempNode:
			pair, _ := s.g.pairByResult(id)
			m = nfa.Concat(evalNode(pair.Left), evalNode(pair.Right))
		}
		memo[id] = m
		return m
	}
	for _, id := range group {
		if s.g.Nodes[id].Kind != TempNode {
			continue
		}
		lang := evalNode(id)
		for _, c := range s.g.SubsetsInto(id) {
			notc, err := s.canon.complement(c)
			if err != nil {
				return false, err
			}
			bad, err := nfa.IntersectsB(s.bud, lang, notc)
			if err != nil {
				return false, err
			}
			if bad {
				return false, nil
			}
		}
	}
	return true, nil
}

// solutionKey fingerprints a node-to-NFA solution for deduplication. When the
// budget trips mid-fingerprint the key degrades to one unique per enumeration
// position (ord), so a verified solution is kept rather than wrongly merged.
func (s *gciSolver) solutionKey(sol map[int]*nfa.NFA, ord int) string {
	ids := make([]int, 0, len(sol))
	for id := range sol {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	key := ""
	for _, id := range ids {
		fp, err := nfa.FingerprintB(s.bud, sol[id])
		if err != nil {
			return fmt.Sprintf("!combo%d", ord)
		}
		key += fmt.Sprintf("%d:%s;", id, fp)
	}
	return key
}

// pruneSubsumed drops solutions that are pointwise subsumed by another
// solution: such assignments are extendable and therefore not maximal.
// Pruning is an optimization — every input is a verified satisfying
// assignment — so on budget exhaustion it degrades to the unpruned set.
func (s *gciSolver) pruneSubsumed(sols []map[int]*nfa.NFA) []map[int]*nfa.NFA {
	return pruneSubsumedB(s.bud, sols)
}

func pruneSubsumedB(bud *budget.Budget, sols []map[int]*nfa.NFA) []map[int]*nfa.NFA {
	var out []map[int]*nfa.NFA
	for i, a := range sols {
		subsumed := false
		for j, b := range sols {
			if i == j {
				continue
			}
			ab, err := pointwiseSubset(bud, a, b)
			if err != nil {
				return sols
			}
			ba, err := pointwiseSubset(bud, b, a)
			if err != nil {
				return sols
			}
			if ab && !ba {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, a)
		}
	}
	return out
}

func pointwiseSubset(bud *budget.Budget, a, b map[int]*nfa.NFA) (bool, error) {
	// Sorted order: whether a budget trip or a definitive non-subset is
	// reported first must not depend on map iteration order.
	ids := make([]int, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		la := a[id]
		lb, ok := b[id]
		if !ok {
			return false, nil
		}
		sub, err := nfa.SubsetB(bud, la, lb)
		if err != nil {
			return false, err
		}
		if !sub {
			return false, nil
		}
	}
	return true, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
