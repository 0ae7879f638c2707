package nfa

// Differential gates for the two fast paths of constant canonicalization.
// Hopcroft's refinement in MinimizeB must produce the same minimal DFA,
// state for state, as Moore's round-by-round refinement, which is kept here
// as the reference. Moore needs one full pass per refinement round, and a
// chain of n states needs n rounds, so the reference only ever runs on
// machines of a few hundred states. DeterminizeB, which keys subsets by
// their members, must build the same DFA as the subset construction keyed
// by full-width bitsets, kept here too, with the same budget charges.

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dprle/internal/budget"
)

// mooreMinimize is Moore's partition refinement: each round splits every
// class by the classes of its states' successors, until a round splits
// nothing. Classes are numbered by first member in state order, except that
// an unrefined partition keeps its initial numbering.
func mooreMinimize(d *DFA) *DFA {
	n := d.NumStates()
	class := make([]int, n)
	numClasses := 1
	anyAccept := false
	for _, a := range d.accept {
		if a {
			anyAccept = true
		}
	}
	if anyAccept {
		numClasses = 2
		for s := 0; s < n; s++ {
			if d.accept[s] {
				class[s] = 1
			}
		}
	}
	for {
		sig := make([]string, n)
		var sb []byte
		for s := 0; s < n; s++ {
			sb = binary.AppendUvarint(sb[:0], uint64(class[s]))
			for _, t := range d.trans[s] {
				sb = binary.AppendUvarint(sb, uint64(class[t]))
			}
			sig[s] = string(sb)
		}
		next := map[string]int{}
		newClass := make([]int, n)
		for s := 0; s < n; s++ {
			id, ok := next[sig[s]]
			if !ok {
				id = len(next)
				next[sig[s]] = id
			}
			newClass[s] = id
		}
		if len(next) == numClasses {
			break
		}
		numClasses = len(next)
		class = newClass
	}
	trans := make([][]int, numClasses)
	accept := make([]bool, numClasses)
	done := make([]bool, numClasses)
	for s := 0; s < n; s++ {
		c := class[s]
		if done[c] {
			continue
		}
		done[c] = true
		row := make([]int, len(d.atoms))
		for ai, t := range d.trans[s] {
			row[ai] = class[t]
		}
		trans[c] = row
		accept[c] = d.accept[s]
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: trans, accept: accept, start: class[d.start]}
}

// randDeterministic builds a random machine with no ε-edges whose states
// have pairwise-disjoint edge labels over {a, b, c, d}: cycles, dead ends
// and unreachable states included.
func randDeterministic(r *rand.Rand, n int) *NFA {
	b := NewBuilder()
	b.AddStates(n)
	for s := 0; s < n; s++ {
		var label CharSet
		for c := byte('a'); c <= 'd'; c++ {
			switch r.Intn(3) {
			case 0: // no edge on c
			case 1:
				label.Add(c) // grouped into one edge below
			default:
				b.AddEdge(s, Singleton(c), r.Intn(n))
			}
		}
		if !label.IsEmpty() {
			b.AddEdge(s, label, r.Intn(n))
		}
	}
	return b.Build(r.Intn(n), r.Intn(n))
}

// randWord returns a random string of length n over the first k letters.
func randWord(r *rand.Rand, n, k int) string {
	w := make([]byte, n)
	for i := range w {
		w[i] = byte('a' + r.Intn(k))
	}
	return string(w)
}

// crossWords reaches the subset {1, 200}, whose members sit in different
// bitset words, on 'a' from two states whose edges enter the members in
// opposite orders.
func crossWords() *NFA {
	b := NewBuilder()
	b.AddStates(201)
	a := Singleton('a')
	b.AddEdge(0, a, 200)
	b.AddEdge(0, a, 1)
	b.AddEdge(0, Singleton('b'), 5)
	b.AddEdge(5, a, 1)
	b.AddEdge(5, a, 200)
	b.AddEdge(1, Singleton('c'), 200)
	return b.Build(0, 200)
}

// filterShape has the shape of a match-language filter: a state with a Σ
// self-loop beside 48 single-byte edges, each the first byte of a word of
// two more bytes.
func filterShape() *NFA {
	b := NewBuilder()
	loop := b.AddState()
	final := b.AddState()
	b.AddEdge(loop, AnyByte(), loop)
	for i := 0; i < 48; i++ {
		first, second := b.AddState(), b.AddState()
		b.AddEdge(loop, Singleton('0'+byte(i)), first)
		b.AddEdge(first, Singleton('x'+byte(i%2)), second)
		b.AddEdge(second, Range('x', 'y'), final)
	}
	return b.Build(loop, final)
}

// diffMachines is the input set of the differential tests: 500 seeded
// random machines from the property and substrate generators, 100 random
// deterministic machines, crossWords, filterShape, and literal chains of up
// to 500 bytes alone, starred, unioned, intersected and concatenated.
func diffMachines() []*NFA {
	r := rand.New(rand.NewSource(20090615))
	ms := []*NFA{crossWords(), filterShape()}
	for i := 0; i < 600; i++ {
		switch {
		case i%6 == 5:
			ms = append(ms, seamedMachine(r))
		case i%6 == 4:
			ms = append(ms, randDeterministic(r, 1+r.Intn(40)))
		default:
			ms = append(ms, randMachine(r, i%4))
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500} {
		for _, k := range []int{2, 16} {
			w := randWord(r, n, k)
			lit := Literal(w)
			ms = append(ms, lit,
				Star(lit),
				Union(lit, Literal(w[:n/2]+randWord(r, n-n/2, k))),
				unbudgeted(IntersectB(nil, lit, Literal(w))),
				Concat(lit, Class(Range('a', 'c'))))
		}
	}
	return ms
}

func TestMinimizeMatchesMoore(t *testing.T) {
	for i, m := range diffMachines() {
		d := unbudgeted(DeterminizeB(nil, m))
		if d.NumStates() > 1000 {
			t.Fatalf("machine %d has %d DFA states; keep the reference under 1,000", i, d.NumStates())
		}
		got, want := unbudgeted(d.MinimizeB(nil)), mooreMinimize(d)
		if got.NumStates() != want.NumStates() {
			t.Fatalf("machine %d (%d DFA states): Hopcroft %d states, Moore %d",
				i, d.NumStates(), got.NumStates(), want.NumStates())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: Hopcroft and Moore give different minimal DFAs", i)
		}
		fg := unbudgeted(FingerprintB(nil, got.ToNFA()))
		if fw := unbudgeted(FingerprintB(nil, want.ToNFA())); fg != fw {
			t.Fatalf("machine %d: fingerprints differ:\n%s\n%s", i, fg, fw)
		}
	}
}

// TestMinimizeBudgetTrips pins the nfa.minimize checkpoints on a chain long
// enough that Moore needed thousands of rounds: a cancelled budget trips on
// entry, and a step cap of 1 trips at the first checkpoint inside the
// refinement.
func TestMinimizeBudgetTrips(t *testing.T) {
	d := unbudgeted(DeterminizeB(nil, Literal(strings.Repeat("abcdefghij", 500))))
	if d.NumStates() < 5000 {
		t.Fatalf("chain has %d states, want at least 5000", d.NumStates())
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		bud  *budget.Budget
		kind budget.Kind
	}{
		{"cancelled", budget.New(cancelled, budget.Limits{}), budget.Canceled},
		{"max-steps", budget.New(context.Background(), budget.Limits{MaxSteps: 1}), budget.Steps},
	} {
		_, err := d.MinimizeB(c.bud)
		var ex *budget.Exhausted
		if !errors.As(err, &ex) {
			t.Fatalf("%s: MinimizeB returned %v, want *budget.Exhausted", c.name, err)
		}
		if ex.Kind != c.kind || ex.Stage != "nfa.minimize" {
			t.Fatalf("%s: tripped %s at %s, want %s at nfa.minimize", c.name, ex.Kind, ex.Stage, c.kind)
		}
	}
	// Unlimited, the chain is already minimal: one state per prefix plus
	// the dead state. Each of its 5,000 cuts queues one splitter after the
	// first, and the 5,001 splitters pass 19 checkpoints after the entry.
	bud := budget.New(context.Background(), budget.Limits{})
	m, err := d.MinimizeB(bud)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != d.NumStates() {
		t.Fatalf("minimal chain has %d states, want %d", m.NumStates(), d.NumStates())
	}
	if steps := bud.Usage().Steps; steps != 20 {
		t.Fatalf("minimizing the chain passed %d checkpoints, want 20", steps)
	}
}

// bitsetDeterminize is the subset construction over full-width bitsets:
// each successor is a fresh set as wide as the machine, keyed by its raw
// words.
func bitsetDeterminize(bud *budget.Budget, m *NFA) (*DFA, error) {
	atoms := Partition(m.allLabels())
	idx := map[string]int{}
	var sets []stateSet
	var trans [][]int
	var accept []bool
	add := func(set stateSet) int {
		var key []byte
		for _, w := range set {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		if id, ok := idx[string(key)]; ok {
			return id
		}
		id := len(sets)
		idx[string(key)] = id
		sets = append(sets, set)
		trans = append(trans, make([]int, len(atoms)))
		accept = append(accept, set.contains(m.final))
		return id
	}
	add(m.startClosure())
	for qi := 0; qi < len(sets); qi++ {
		if err := bud.AddStates(1, "nfa.determinize"); err != nil {
			return nil, err
		}
		for ai, atom := range atoms {
			rep, ok := atom.Min()
			if !ok {
				continue
			}
			trans[qi][ai] = add(m.step(sets[qi], rep))
		}
	}
	return newDFA(atoms, trans, accept, 0), nil
}

func TestDeterminizeMatchesBitsetSubsets(t *testing.T) {
	for i, m := range diffMachines() {
		fast := budget.New(context.Background(), budget.Limits{})
		slow := budget.New(context.Background(), budget.Limits{})
		got, err := DeterminizeB(fast, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bitsetDeterminize(slow, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: DeterminizeB built a different DFA from the bitset construction", i)
		}
		if fast.Usage() != slow.Usage() {
			t.Fatalf("machine %d: usage %+v, bitset construction %+v", i, fast.Usage(), slow.Usage())
		}
	}
}
