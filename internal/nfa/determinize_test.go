package nfa

import "testing"

func TestDeterminizeAccepts(t *testing.T) {
	m := Union(Literal("ab"), Star(Literal("a")))
	d := unbudgeted(DeterminizeB(nil, m))
	for _, w := range []string{"", "a", "aa", "ab", "aaa"} {
		if !d.Accepts(w) {
			t.Errorf("DFA should accept %q", w)
		}
	}
	for _, w := range []string{"b", "ba", "abb"} {
		if d.Accepts(w) {
			t.Errorf("DFA should reject %q", w)
		}
	}
}

func TestDeterminizeEmpty(t *testing.T) {
	d := unbudgeted(DeterminizeB(nil, Empty()))
	if !d.IsEmpty() {
		t.Fatal("DFA of empty language should be empty")
	}
	if d.Accepts("") || d.Accepts("a") {
		t.Fatal("empty DFA accepted something")
	}
}

func TestDFAComplement(t *testing.T) {
	m := Literal("ab")
	c := unbudgeted(DeterminizeB(nil, m)).Complement()
	if c.Accepts("ab") {
		t.Fatal("complement accepts member")
	}
	for _, w := range []string{"", "a", "b", "abc", "xyz"} {
		if !c.Accepts(w) {
			t.Errorf("complement should accept %q", w)
		}
	}
}

func TestComplementInvolution(t *testing.T) {
	m := Union(Literal("x"), Star(Literal("yz")))
	cc := unbudgeted(ComplementB(nil, unbudgeted(ComplementB(nil, m))))
	if !Equivalent(m, cc) {
		t.Fatal("double complement should be identity on languages")
	}
}

func TestMinimizeReducesStates(t *testing.T) {
	// (a|b)(a|b) via a redundant construction.
	ab := Class(Range('a', 'b'))
	m := Union(Concat(Literal("a"), ab.Copy()), Concat(Literal("b"), ab.Copy()))
	min := unbudgeted(unbudgeted(DeterminizeB(nil, m)).MinimizeB(nil))
	// Minimal DFA for [ab][ab]: start, after-1, accept, dead = 4 states.
	if min.NumStates() != 4 {
		t.Fatalf("minimal DFA has %d states, want 4", min.NumStates())
	}
	for _, w := range []string{"aa", "ab", "ba", "bb"} {
		if !min.Accepts(w) {
			t.Errorf("minimized DFA should accept %q", w)
		}
	}
	if min.Accepts("a") || min.Accepts("aaa") {
		t.Fatal("minimized DFA over-accepts")
	}
}

func TestMinimizeEmptyAndSigmaStar(t *testing.T) {
	empty, all := unbudgeted(DeterminizeB(nil, Empty())), unbudgeted(DeterminizeB(nil, AnyString()))
	if n := unbudgeted(empty.MinimizeB(nil)).NumStates(); n != 1 {
		t.Fatalf("minimal empty DFA states = %d, want 1", n)
	}
	if n := unbudgeted(all.MinimizeB(nil)).NumStates(); n != 1 {
		t.Fatalf("minimal Σ* DFA states = %d, want 1", n)
	}
}

func TestDFAToNFARoundTrip(t *testing.T) {
	m := Union(Literal("foo"), Plus(Literal("ba")))
	back := unbudgeted(MinimizedB(nil, m))
	if !Equivalent(m, back) {
		t.Fatal("DFA→NFA round trip changed the language")
	}
}

func TestComplementNFA(t *testing.T) {
	m := Plus(Class(Range('0', '9')))
	c := unbudgeted(ComplementB(nil, m))
	mustAccept(t, c, "", "a", "1a", "a1")
	mustReject(t, c, "1", "42", "00000")
}

func TestMinimizedHelper(t *testing.T) {
	m := UnionAll(Literal("aa"), Literal("aa"), Literal("aa"))
	min := unbudgeted(MinimizedB(nil, m))
	if !Equivalent(m, min) {
		t.Fatal("Minimized changed the language")
	}
	if min.NumStates() >= m.NumStates() {
		t.Fatalf("Minimized did not shrink: %d -> %d", m.NumStates(), min.NumStates())
	}
}

func TestSubset(t *testing.T) {
	digits := Plus(Class(Range('0', '9')))
	some := Literal("123")
	if !unbudgeted(SubsetB(nil, some, digits)) {
		t.Fatal("123 ⊆ [0-9]+ should hold")
	}
	if unbudgeted(SubsetB(nil, digits, some)) {
		t.Fatal("[0-9]+ ⊆ 123 should not hold")
	}
	if !unbudgeted(SubsetB(nil, Empty(), some)) {
		t.Fatal("∅ is a subset of everything")
	}
	if !unbudgeted(SubsetB(nil, some, AnyString())) {
		t.Fatal("everything is a subset of Σ*")
	}
}

func TestEquivalent(t *testing.T) {
	a := Star(Union(Literal("a"), Literal("b")))
	b := Star(Class(Range('a', 'b')))
	if !Equivalent(a, b) {
		t.Fatal("(a|b)* should equal [ab]*")
	}
	if Equivalent(a, Plus(Class(Range('a', 'b')))) {
		t.Fatal("[ab]* should differ from [ab]+ (ε)")
	}
}

func TestProperSubset(t *testing.T) {
	properSubset := func(a, b *NFA) bool {
		return unbudgeted(SubsetB(nil, a, b)) && !unbudgeted(SubsetB(nil, b, a))
	}
	if !properSubset(Literal("a"), Star(Literal("a"))) {
		t.Fatal("a ⊊ a* should hold")
	}
	if properSubset(Star(Literal("a")), Star(Literal("a"))) {
		t.Fatal("L ⊊ L should not hold")
	}
}

func TestFingerprintEquality(t *testing.T) {
	// Same language built two structurally different ways.
	a := Star(Union(Literal("a"), Literal("b")))
	b := Star(Class(Range('a', 'b')))
	if unbudgeted(FingerprintB(nil, a)) != unbudgeted(FingerprintB(nil, b)) {
		t.Fatal("equal languages must have equal fingerprints")
	}
	c := Plus(Class(Range('a', 'b')))
	if unbudgeted(FingerprintB(nil, a)) == unbudgeted(FingerprintB(nil, c)) {
		t.Fatal("different languages must have different fingerprints")
	}
}

func TestFingerprintEmptyAndEpsilon(t *testing.T) {
	if unbudgeted(FingerprintB(nil, Empty())) == unbudgeted(FingerprintB(nil, Epsilon())) {
		t.Fatal("∅ and {ε} must differ")
	}
	if unbudgeted(FingerprintB(nil, Empty())) != unbudgeted(FingerprintB(nil, unbudgeted(IntersectB(nil, Literal("a"), Literal("b"))))) {
		t.Fatal("two empty languages must match")
	}
}
