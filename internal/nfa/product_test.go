package nfa

import "testing"

func TestIntersectBasic(t *testing.T) {
	a := Union(Literal("cat"), Literal("dog"))
	b := Union(Literal("dog"), Literal("emu"))
	m := unbudgeted(IntersectB(nil, a, b))
	mustAccept(t, m, "dog")
	mustReject(t, m, "cat", "emu", "")
}

func TestIntersectDisjoint(t *testing.T) {
	m := unbudgeted(IntersectB(nil, Literal("a"), Literal("b")))
	if !m.IsEmpty() {
		t.Fatal("intersection of disjoint languages should be empty")
	}
}

func TestIntersectWithSigmaStar(t *testing.T) {
	a := Literal("hello")
	m := unbudgeted(IntersectB(nil, a, AnyString()))
	if !Equivalent(m, a) {
		t.Fatal("L ∩ Σ* should equal L")
	}
}

func TestIntersectClassLabels(t *testing.T) {
	// [a-m]+ ∩ [h-z]+ = [h-m]+
	a := Plus(Class(Range('a', 'm')))
	b := Plus(Class(Range('h', 'z')))
	m := unbudgeted(IntersectB(nil, a, b))
	mustAccept(t, m, "h", "m", "hm", "jklm")
	mustReject(t, m, "a", "z", "hma")
	if !Equivalent(m, Plus(Class(Range('h', 'm')))) {
		t.Fatal("charset intersection wrong")
	}
}

func TestIntersectPreservesSeamTags(t *testing.T) {
	// The motivating pipeline of paper Fig. 4: (c1 · c2) ∩ c3.
	c1 := Literal("nid_")
	c2 := Concat(Star(Class(AnyByte())), Class(Range('0', '9'))) // Σ*[0-9]
	hasQuote := Concat(Concat(Star(Class(AnyByte())), Literal("'")), Star(Class(AnyByte())))
	l4 := ConcatTagged(c1, c2, 0)
	l5 := unbudgeted(IntersectB(nil, l4, hasQuote)).Trim()
	if l5.IsEmpty() {
		t.Fatal("l5 should be nonempty")
	}
	seams := l5.TaggedEdges()
	if len(seams) == 0 {
		t.Fatal("seam tags lost during intersection")
	}
	for _, e := range seams {
		if e.Tag != 0 {
			t.Fatalf("unexpected tag %d", e.Tag)
		}
	}
	// Every accepted string: starts with nid_, contains a quote, ends with digit.
	mustAccept(t, l5, "nid_'5", "nid_ab'cd9")
	mustReject(t, l5, "nid_5", "'5", "nid_'x")
}

func TestIntersectUnreachableFinal(t *testing.T) {
	// a ∩ b where joint final unreachable: must build a valid empty machine.
	m := unbudgeted(IntersectB(nil, Literal("aa"), Literal("a")))
	if !m.IsEmpty() {
		t.Fatal("should be empty")
	}
	mustReject(t, m, "a", "aa")
}

func TestIntersectAll(t *testing.T) {
	if !Equivalent(unbudgeted(IntersectAllB(nil)), AnyString()) {
		t.Fatal("IntersectAllB(nil) should be Σ*")
	}
	m := unbudgeted(IntersectAllB(nil,
		Plus(Class(Range('a', 'z'))),
		Concat(Literal("a"), Star(Class(AnyByte()))),
		Concat(Star(Class(AnyByte())), Literal("z")),
	))
	mustAccept(t, m, "az", "abcz")
	mustReject(t, m, "a", "z", "aZ")
}

func TestIntersectCommutesOnLanguage(t *testing.T) {
	a := Union(Star(Literal("ab")), Literal("ba"))
	b := Concat(Class(Range('a', 'b')), Star(Class(Range('a', 'b'))))
	if !Equivalent(unbudgeted(IntersectB(nil, a, b)), unbudgeted(IntersectB(nil, b, a))) {
		t.Fatal("intersection should commute on languages")
	}
}

func TestProductStatesVisited(t *testing.T) {
	a := Literal("abc")
	b := AnyString()
	n := unbudgeted(IntersectB(nil, a, b)).NumStates()
	if n <= 0 || n > a.NumStates()*b.NumStates() {
		t.Fatalf("visited = %d out of plausible range (≤ %d)", n, a.NumStates()*b.NumStates())
	}
}
