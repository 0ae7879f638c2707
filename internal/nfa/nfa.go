package nfa

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// NoTag marks an ordinary (unlabelled) ε-transition.
const NoTag = -1

// Edge is a character transition labelled with a set of bytes.
type Edge struct {
	Label CharSet
	To    int
}

// EpsEdge is an ε-transition. A nonnegative Tag identifies the edge as a
// concatenation seam introduced by ConcatTagged; the cross-product
// construction preserves tags, which is how the DPRLE CI algorithm recovers
// the Qlhs × Qrhs slicing points after intersection (paper Fig. 3).
type EpsEdge struct {
	To  int
	Tag int
}

// NFA is a nondeterministic finite automaton over the byte alphabet with a
// single start state and a single final state, as assumed by the paper
// (§3.2: "we assume that each NFA Mi has a single start state si and a
// single final state fi"). NFAs are immutable once built; all operations
// return fresh machines. Immutability is what makes the zero-copy views
// (WithStart, WithFinal, Induce) sound: a view shares the backing edges/eps
// slices and the memo caches of its origin instead of deep-copying them.
type NFA struct {
	edges [][]Edge    // edges[s] = character transitions out of s
	eps   [][]EpsEdge // eps[s] = ε-transitions out of s
	start int
	final int

	// canon memoizes CanonicalKey. Sound because machines are immutable
	// once built; atomic because interned machines are shared across
	// concurrently-running solves. The key depends on start/final, so
	// views start unmemoized.
	canon atomic.Pointer[string]

	// eclo memoizes per-state ε-closures and seamfree the seam-stripped
	// transition structure. Both depend only on the transition structure,
	// not on start/final, so views share them with their origin.
	eclo     *ecloCache
	seamfree *seamMemo
}

// NumStates returns the number of states in the machine.
func (m *NFA) NumStates() int { return len(m.edges) }

// Start returns the start state.
func (m *NFA) Start() int { return m.start }

// Final returns the (single) final state.
func (m *NFA) Final() int { return m.final }

// EdgesFrom returns the character transitions leaving state s. The returned
// slice must not be modified.
func (m *NFA) EdgesFrom(s int) []Edge { return m.edges[s] }

// EpsFrom returns the ε-transitions leaving state s. The returned slice must
// not be modified.
func (m *NFA) EpsFrom(s int) []EpsEdge { return m.eps[s] }

// Builder incrementally constructs an NFA.
type Builder struct {
	edges [][]Edge
	eps   [][]EpsEdge
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddState adds a fresh state and returns its id.
func (b *Builder) AddState() int {
	b.edges = append(b.edges, nil)
	b.eps = append(b.eps, nil)
	return len(b.edges) - 1
}

// AddStates adds n fresh states and returns the id of the first.
func (b *Builder) AddStates(n int) int {
	first := len(b.edges)
	for i := 0; i < n; i++ {
		b.AddState()
	}
	return first
}

// AddEdge adds a character transition from → to labelled with the given set.
// Empty labels are ignored.
func (b *Builder) AddEdge(from int, label CharSet, to int) {
	if label.IsEmpty() {
		return
	}
	b.edges[from] = append(b.edges[from], Edge{Label: label, To: to})
}

// AddEps adds an ordinary ε-transition from → to.
func (b *Builder) AddEps(from, to int) {
	b.eps[from] = append(b.eps[from], EpsEdge{To: to, Tag: NoTag})
}

// AddTaggedEps adds a seam ε-transition carrying the given nonnegative tag.
// It panics if tag is negative: seam tags index concat edges, and a negative
// value is always a caller bug, never recoverable data.
func (b *Builder) AddTaggedEps(from, to, tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("nfa: AddTaggedEps with negative tag %d", tag))
	}
	b.eps[from] = append(b.eps[from], EpsEdge{To: to, Tag: tag})
}

// NumStates returns the number of states added so far.
func (b *Builder) NumStates() int { return len(b.edges) }

// Build finalizes the machine with the given start and final states,
// normalizing each state's edge list: parallel character edges to the same
// target are merged by unioning their labels, and duplicate ε-edges are
// dropped. Chained cross-products re-derive the same target under many
// label fragments; merging here keeps machine size — and the atom
// partitions derived from edge labels — from compounding across a chain.
// Build panics if either state is out of range — machine construction is
// solver-internal, so an invalid state ID is a bug, not input.
func (b *Builder) Build(start, final int) *NFA {
	if start < 0 || start >= len(b.edges) || final < 0 || final >= len(b.edges) {
		panic("nfa: Build with out-of-range start or final state")
	}
	m := newNFA(b.edges, b.eps, start, final)
	b.edges = nil
	b.eps = nil
	return m
}

// newNFA is the internal constructor of machines whose rows may need
// normalizing: it normalizes the edge lists (see Build) and initializes the
// shared memo caches, taking ownership of the given slices. IntersectB,
// which can size its rows exactly, calls it directly, skipping the
// Builder's incremental growth. Every machine's rows are normalized, which
// is what lets flatRows copy them as they are.
func newNFA(edges [][]Edge, eps [][]EpsEdge, start, final int) *NFA {
	for s := range edges {
		edges[s] = mergeEdges(edges[s])
	}
	for s := range eps {
		eps[s] = dedupEps(eps[s])
	}
	return &NFA{edges: edges, eps: eps, start: start, final: final,
		eclo: newEcloCache(len(edges)), seamfree: &seamMemo{}}
}

// flatRows lays out a machine whose size is known up front. Each state's
// character edges and ε-edges are appended, in state order, to two exactly
// sized backing arrays, and endRow closes the state's row as a
// capacity-capped window of them, so a machine of any size costs a fixed
// number of allocations. Unlike Build it does not normalize: the caller
// writes rows that are already merged and deduplicated, as the copy of a
// built machine's rows under an injective renumbering is.
type flatRows struct {
	edges      [][]Edge
	eps        [][]EpsEdge
	flatE      []Edge
	flatP      []EpsEdge
	rowE, rowP int // where the open row starts in flatE and flatP
}

func newFlatRows(states, edges, eps int) flatRows {
	return flatRows{
		edges: make([][]Edge, 0, states), eps: make([][]EpsEdge, 0, states),
		flatE: make([]Edge, 0, edges), flatP: make([]EpsEdge, 0, eps),
	}
}

// endRow closes the open row. A row without edges stays nil, as the
// Builder leaves it.
func (r *flatRows) endRow() {
	var es []Edge
	if n := len(r.flatE); n > r.rowE {
		es = r.flatE[r.rowE:n:n]
	}
	var ps []EpsEdge
	if n := len(r.flatP); n > r.rowP {
		ps = r.flatP[r.rowP:n:n]
	}
	r.edges = append(r.edges, es)
	r.eps = append(r.eps, ps)
	r.rowE, r.rowP = len(r.flatE), len(r.flatP)
}

// appendMachine appends m's rows with every state shifted by off, and the
// join ε-edges after those of m's final state, dropping any the row already
// has, as Build would.
func (r *flatRows) appendMachine(m *NFA, off int, join ...EpsEdge) {
	for s := range m.edges {
		for _, e := range m.edges[s] {
			r.flatE = append(r.flatE, Edge{Label: e.Label, To: off + e.To})
		}
		for _, e := range m.eps[s] {
			r.flatP = append(r.flatP, EpsEdge{To: off + e.To, Tag: e.Tag})
		}
		if s == m.final {
			for _, j := range join {
				if !slices.Contains(r.flatP[r.rowP:], j) {
					r.flatP = append(r.flatP, j)
				}
			}
		}
		r.endRow()
	}
}

func (r *flatRows) build(start, final int) *NFA {
	return &NFA{edges: r.edges, eps: r.eps, start: start, final: final,
		eclo: newEcloCache(len(r.edges)), seamfree: &seamMemo{}}
}

// sizes totals the states, character edges and ε-edges of ms.
func sizes(ms []*NFA) (states, edges, eps int) {
	for _, m := range ms {
		states += len(m.edges)
		for s := range m.edges {
			edges += len(m.edges[s])
			eps += len(m.eps[s])
		}
	}
	return states, edges, eps
}

// mergeEdges unions the labels of parallel edges (same target) in place,
// keeping first-occurrence target order so construction stays deterministic.
func mergeEdges(list []Edge) []Edge {
	if len(list) < 2 {
		return list
	}
	const smallMerge = 16
	out := list[:0]
	if len(list) <= smallMerge {
		for _, e := range list {
			merged := false
			for i := range out {
				if out[i].To == e.To {
					out[i].Label = out[i].Label.Union(e.Label)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, e)
			}
		}
		return out
	}
	at := make(map[int]int, len(list))
	for _, e := range list {
		if i, ok := at[e.To]; ok {
			out[i].Label = out[i].Label.Union(e.Label)
			continue
		}
		at[e.To] = len(out)
		out = append(out, e)
	}
	return out
}

// dedupEps drops duplicate ε-edges (same target and tag), keeping
// first-occurrence order; products emit the same ε-move once per derivation.
func dedupEps(list []EpsEdge) []EpsEdge {
	if len(list) < 2 {
		return list
	}
	out := list[:0]
	for _, e := range list {
		dup := false
		for _, k := range out {
			if k == e {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

// Empty returns a machine recognizing the empty language ∅.
func Empty() *NFA {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	return b.Build(s, f)
}

// Epsilon returns a machine recognizing {ε}.
func Epsilon() *NFA {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	b.AddEps(s, f)
	return b.Build(s, f)
}

// Literal returns a machine recognizing exactly {str}.
func Literal(str string) *NFA {
	b := NewBuilder()
	s := b.AddState()
	cur := s
	for i := 0; i < len(str); i++ {
		next := b.AddState()
		b.AddEdge(cur, Singleton(str[i]), next)
		cur = next
	}
	if cur == s {
		// Empty literal: distinct final reached by ε keeps start ≠ final,
		// which simplifies downstream constructions.
		f := b.AddState()
		b.AddEps(s, f)
		return b.Build(s, f)
	}
	return b.Build(s, cur)
}

// Class returns a machine recognizing the single-byte strings drawn from set.
func Class(set CharSet) *NFA {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	b.AddEdge(s, set, f)
	return b.Build(s, f)
}

// AnyString returns a machine recognizing Σ*, the initial assignment the
// solver gives every unconstrained variable.
func AnyString() *NFA {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	b.AddEdge(s, AnyByte(), s)
	b.AddEps(s, f)
	return b.Build(s, f)
}

// Copy returns a deep copy of m with its own backing storage and fresh memo
// caches. The solver never needs this — views are cheaper and machines are
// immutable — but it keeps an escape hatch for callers that want a machine
// isolated from its origin.
func (m *NFA) Copy() *NFA {
	edges := make([][]Edge, len(m.edges))
	eps := make([][]EpsEdge, len(m.eps))
	for s := range m.edges {
		edges[s] = append([]Edge(nil), m.edges[s]...)
		eps[s] = append([]EpsEdge(nil), m.eps[s]...)
	}
	return &NFA{edges: edges, eps: eps, start: m.start, final: m.final,
		eclo: newEcloCache(len(edges)), seamfree: &seamMemo{}}
}

// view returns a machine sharing m's transition structure and memo caches
// but with its own start and final states. O(1): immutability makes sharing
// the backing slices sound, and the shared ε-closure/seam memos mean work
// done through any view benefits every other view of the same structure.
func (m *NFA) view(start, final int) *NFA {
	return &NFA{edges: m.edges, eps: m.eps, start: start, final: final,
		eclo: m.eclo, seamfree: m.seamfree}
}

// WithStart returns a machine identical to m except that its start state is
// s (the paper's induce_from_start). The result is a zero-copy view.
func (m *NFA) WithStart(s int) *NFA {
	return m.view(s, m.final)
}

// WithFinal returns a machine identical to m except that its final state is
// f (the paper's induce_from_final). The result is a zero-copy view.
func (m *NFA) WithFinal(f int) *NFA {
	return m.view(m.start, f)
}

// TaggedEdge locates a seam ε-edge inside a machine.
type TaggedEdge struct {
	From int
	To   int
	Tag  int
}

// TaggedEdges returns every seam ε-edge in the machine, in state order.
func (m *NFA) TaggedEdges() []TaggedEdge {
	var out []TaggedEdge
	for s := range m.eps {
		for _, e := range m.eps[s] {
			if e.Tag != NoTag {
				out = append(out, TaggedEdge{From: s, To: e.To, Tag: e.Tag})
			}
		}
	}
	return out
}

// Tags returns the distinct seam tags present in the machine, in ascending
// order.
func (m *NFA) Tags() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range m.TaggedEdges() {
		if !seen[e.Tag] {
			seen[e.Tag] = true
			out = append(out, e.Tag)
		}
	}
	sort.Ints(out)
	return out
}

// allLabels returns every distinct charset used as an edge label in m.
func (m *NFA) allLabels() []CharSet {
	seen := map[CharSet]bool{}
	var out []CharSet
	for s := range m.edges {
		for _, e := range m.edges[s] {
			if !seen[e.Label] {
				seen[e.Label] = true
				out = append(out, e.Label)
			}
		}
	}
	return out
}
