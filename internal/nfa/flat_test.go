package nfa

// Differential gates for the machines laid out in one pass (flatRows):
// ConcatAll, UnionAll and the structural operations built on them, Trim,
// LeftQuotientB and DFA.ToNFA. Each must build the machine, state for state
// and edge for edge, that the Builder construction it replaced builds. The
// references below are those constructions, kept here: they add states and
// edges one at a time and let Build merge parallel edges and drop duplicate
// ε-edges. The allocation gates pin the point of the one-pass layout: a
// machine of any size costs a fixed number of allocations.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refAppend append-copies the states of src into b, returning the state-id
// offset.
func refAppend(b *Builder, src *NFA) int {
	off := b.AddStates(src.NumStates())
	for s := 0; s < src.NumStates(); s++ {
		for _, e := range src.edges[s] {
			b.AddEdge(off+s, e.Label, off+e.To)
		}
		for _, e := range src.eps[s] {
			if e.Tag == NoTag {
				b.AddEps(off+s, off+e.To)
			} else {
				b.AddTaggedEps(off+s, off+e.To, e.Tag)
			}
		}
	}
	return off
}

func refConcat(a, b *NFA, tag int) *NFA {
	bl := NewBuilder()
	offA := refAppend(bl, a)
	offB := refAppend(bl, b)
	if tag == NoTag {
		bl.AddEps(offA+a.final, offB+b.start)
	} else {
		bl.AddTaggedEps(offA+a.final, offB+b.start, tag)
	}
	return bl.Build(offA+a.start, offB+b.final)
}

func refUnion(a, b *NFA) *NFA {
	bl := NewBuilder()
	s := bl.AddState()
	f := bl.AddState()
	offA := refAppend(bl, a)
	offB := refAppend(bl, b)
	bl.AddEps(s, offA+a.start)
	bl.AddEps(s, offB+b.start)
	bl.AddEps(offA+a.final, f)
	bl.AddEps(offB+b.final, f)
	return bl.Build(s, f)
}

// refAround is the Builder form of Star (skip, back), Plus (back) and
// Optional (skip).
func refAround(a *NFA, skip, back bool) *NFA {
	bl := NewBuilder()
	s := bl.AddState()
	f := bl.AddState()
	off := refAppend(bl, a)
	bl.AddEps(s, off+a.start)
	if skip {
		bl.AddEps(s, f)
	}
	bl.AddEps(off+a.final, f)
	if back {
		bl.AddEps(off+a.final, off+a.start)
	}
	return bl.Build(s, f)
}

// refTrim keeps the states on a path from start to final and rebuilds the
// machine through a Builder.
func refTrim(m *NFA) *NFA {
	reach, coreach := m.reachable(), m.coreachable()
	b := NewBuilder()
	keep := make([]int, m.NumStates())
	for s := range keep {
		keep[s] = -1
		if reach.contains(s) && coreach.contains(s) {
			keep[s] = b.AddState()
		}
	}
	if keep[m.start] < 0 || keep[m.final] < 0 {
		return Empty()
	}
	for s, k := range keep {
		if k < 0 {
			continue
		}
		for _, e := range m.edges[s] {
			if keep[e.To] >= 0 {
				b.AddEdge(k, e.Label, keep[e.To])
			}
		}
		for _, e := range m.eps[s] {
			switch {
			case keep[e.To] < 0:
			case e.Tag == NoTag:
				b.AddEps(k, keep[e.To])
			default:
				b.AddTaggedEps(k, keep[e.To], e.Tag)
			}
		}
	}
	return b.Build(keep[m.start], keep[m.final])
}

// refToNFA writes an edge per state and atom and an ε-edge from each
// accepting state to a fresh final, then trims.
func refToNFA(d *DFA) *NFA {
	bl := NewBuilder()
	bl.AddStates(d.NumStates())
	f := bl.AddState()
	for s := 0; s < d.NumStates(); s++ {
		for a, t := range d.trans[s] {
			bl.AddEdge(s, d.atoms[a], t)
		}
		if d.accept[s] {
			bl.AddEps(s, f)
		}
	}
	return refTrim(bl.Build(d.start, f))
}

func refLeftQuotient(a, x *NFA) *NFA {
	entry, _ := jointlyReachable(nil, a, x, true)
	bl := NewBuilder()
	s := bl.AddState()
	off := refAppend(bl, x)
	for q, ok := range entry {
		if ok {
			bl.AddEps(s, off+q)
		}
	}
	return refTrim(bl.Build(s, off+x.final))
}

// sameMachine reports how got differs from want in rows, start or final.
func sameMachine(got, want *NFA) error {
	switch {
	case got.start != want.start || got.final != want.final:
		return fmt.Errorf("start/final %d/%d, want %d/%d", got.start, got.final, want.start, want.final)
	case !reflect.DeepEqual(got.edges, want.edges):
		return fmt.Errorf("edges %v, want %v", got.edges, want.edges)
	case !reflect.DeepEqual(got.eps, want.eps):
		return fmt.Errorf("ε-edges %v, want %v", got.eps, want.eps)
	}
	return nil
}

func TestConcatUnionAllMatchFolds(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		ms := make([]*NFA, 1+r.Intn(6))
		for j := range ms {
			ms[j] = randMachine(r, r.Intn(3))
		}
		cat, union := ms[0], ms[0]
		for _, m := range ms[1:] {
			cat, union = refConcat(cat, m, NoTag), refUnion(union, m)
		}
		if got, want := ConcatAll(ms...).Marshal(), cat.Marshal(); got != want {
			t.Fatalf("case %d: ConcatAll of %d machines:\n%s\nleft fold:\n%s", i, len(ms), got, want)
		}
		if got, want := UnionAll(ms...).Marshal(), union.Marshal(); got != want {
			t.Fatalf("case %d: UnionAll of %d machines:\n%s\nleft fold:\n%s", i, len(ms), got, want)
		}
	}
	if got, want := ConcatAll().Marshal(), Epsilon().Marshal(); got != want {
		t.Fatalf("ConcatAll() = %s, want {ε}", got)
	}
	if got, want := UnionAll().Marshal(), Empty().Marshal(); got != want {
		t.Fatalf("UnionAll() = %s, want ∅", got)
	}
}

func TestStructuralOpsMatchBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a, b := randMachine(r, r.Intn(3)), randMachine(r, r.Intn(3))
		if i%5 == 0 {
			// A final state with an ε-edge back to the start, which Star
			// and Plus must not repeat, and a final state that is the
			// start.
			bl := NewBuilder()
			bl.AddStates(2)
			bl.AddEdge(0, Singleton('a'), 1)
			bl.AddEps(1, 0)
			a, b = bl.Build(0, 1), b.WithFinal(b.start)
		}
		for _, c := range []struct {
			name      string
			got, want *NFA
		}{
			{"Concat", Concat(a, b), refConcat(a, b, NoTag)},
			{"ConcatTagged", ConcatTagged(a, b, 3), refConcat(a, b, 3)},
			{"Union", Union(a, b), refUnion(a, b)},
			{"Star", Star(a), refAround(a, true, true)},
			{"Plus", Plus(a), refAround(a, false, true)},
			{"Optional", Optional(a), refAround(a, true, false)},
			{"Trim", Concat(a, b).Trim(), refTrim(refConcat(a, b, NoTag))},
			{"LeftQuotientB", unbudgeted(LeftQuotientB(nil, a, b)), refLeftQuotient(a, b)},
		} {
			if err := sameMachine(c.got, c.want); err != nil {
				t.Fatalf("case %d: %s: %v", i, c.name, err)
			}
		}
	}
}

func TestTrimMatchesBuilder(t *testing.T) {
	for i, m := range diffMachines() {
		if err := sameMachine(m.Trim(), refTrim(m)); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
}

// TestToNFAMatchesBuilder checks ToNFA on the determinized and minimal DFA
// of every differential machine and on both complements, then on a DFA
// that accepts nothing and one whose accepting state the start cannot
// reach.
func TestToNFAMatchesBuilder(t *testing.T) {
	var dfas []*DFA
	for _, m := range diffMachines() {
		d := unbudgeted(DeterminizeB(nil, m))
		md := unbudgeted(d.MinimizeB(nil))
		dfas = append(dfas, d, md, d.Complement(), md.Complement())
	}
	atoms := Partition([]CharSet{Singleton('a')})
	dfas = append(dfas,
		newDFA(atoms, [][]int{{1, 0}, {1, 1}}, []bool{false, false}, 0),
		newDFA(atoms, [][]int{{0, 0}, {2, 0}, {2, 2}}, []bool{false, false, true}, 0))
	for i, d := range dfas {
		if err := sameMachine(d.ToNFA(), refToNFA(d)); err != nil {
			t.Fatalf("DFA %d (%d states): %v", i, d.NumStates(), err)
		}
	}
	for _, d := range dfas[len(dfas)-2:] {
		if got := d.ToNFA(); !got.IsEmpty() || got.NumStates() != 2 {
			t.Fatalf("DFA with an empty language gave %d states, want Empty()", got.NumStates())
		}
	}
}

// hotpathLiteral is the 2,000-byte literal of the hotpath minimize and
// canonicalize rows: comma-separated column names, the shape of the long
// query constants the solver canonicalizes.
func hotpathLiteral(n int) *NFA {
	var text strings.Builder
	for i := 0; text.Len() < n; i++ {
		fmt.Fprintf(&text, "col_%02d_%02d,", i/8, i%8)
	}
	return Literal(text.String()[:n])
}

// TestToNFAAllocsConstant gates ToNFA's allocations: the minimal DFA of a
// literal of 500 bytes and of 2,000 costs the same fixed number. Built
// through a Builder and trimmed, it cost five allocations per state.
func TestToNFAAllocsConstant(t *testing.T) {
	var allocs []float64
	for _, n := range []int{500, 2000} {
		md := unbudgeted(unbudgeted(DeterminizeB(nil, hotpathLiteral(n))).MinimizeB(nil))
		allocs = append(allocs, testing.AllocsPerRun(5, func() { md.ToNFA() }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 20 {
		t.Fatalf("ToNFA allocated %v times for literals of 500 and 2,000 bytes, want the same count, at most 20", allocs)
	}
}
