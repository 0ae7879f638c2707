package nfa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsInfinite(t *testing.T) {
	cases := []struct {
		m    *NFA
		want bool
	}{
		{Empty(), false},
		{Epsilon(), false},
		{Literal("abc"), false},
		{Union(Literal("a"), Literal("bb")), false},
		{Star(Literal("a")), true},
		{Plus(Literal("ab")), true},
		{AnyString(), true},
		{unbudgeted(IntersectB(nil, Star(Literal("a")), Literal("aa"))), false}, // finite after ∩
	}
	for i, c := range cases {
		if got := c.m.IsInfinite(); got != c.want {
			t.Errorf("case %d: IsInfinite = %v, want %v", i, got, c.want)
		}
	}
}

func TestIsInfiniteIgnoresUselessCycles(t *testing.T) {
	// A cycle that is reachable but not coreachable must not count.
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	loop := b.AddState()
	b.AddEdge(s, Singleton('a'), f)
	b.AddEdge(s, Singleton('x'), loop)
	b.AddEdge(loop, Singleton('x'), loop)
	m := b.Build(s, f)
	if m.IsInfinite() {
		t.Fatal("dead cycle should not make the language infinite")
	}
}

func TestWordLengthBounds(t *testing.T) {
	m := Union(Literal("ab"), Literal("wxyz"))
	min, ok := m.MinWordLength()
	if !ok || min != 2 {
		t.Fatalf("min = %d/%v", min, ok)
	}
	max, inf, ok := m.MaxWordLength()
	if !ok || inf || max != 4 {
		t.Fatalf("max = %d/%v/%v", max, inf, ok)
	}
	if _, _, ok := Empty().MaxWordLength(); ok {
		t.Fatal("empty language has no max length")
	}
	if _, inf, _ := Star(Literal("a")).MaxWordLength(); !inf {
		t.Fatal("a* must be infinite")
	}
}

func TestCountWords(t *testing.T) {
	// [ab]{0,2}: 1 + 2 + 4 members by length.
	m := Concat(Optional(Class(Range('a', 'b'))), Optional(Class(Range('a', 'b'))))
	counts := m.CountWords(3)
	want := []int{1, 2, 4, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestCountWordsNoDoubleCounting(t *testing.T) {
	// a|a|a has exactly one word of length 1.
	m := UnionAll(Literal("a"), Literal("a"), Literal("a"))
	counts := m.CountWords(2)
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCountWordsMatchesEnumerate(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	f := func() bool {
		m := randMachine(r, 2)
		counts := m.CountWords(3)
		byLen := map[int]int{}
		for _, w := range m.Enumerate(3, 100000) {
			byLen[len(w)]++
		}
		for l := 0; l <= 3; l++ {
			if counts[l] != byLen[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMember(t *testing.T) {
	m := Concat(Literal("id="), Plus(Class(Range('0', '9'))))
	seen := map[string]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		w, ok := m.SampleMember(seed)
		if !ok {
			t.Fatal("sample failed on nonempty language")
		}
		if !m.Accepts(w) {
			t.Fatalf("sample %q not in language", w)
		}
		seen[w] = true
	}
	if len(seen) < 3 {
		t.Fatalf("sampling not diverse: %v", seen)
	}
	// Determinism per seed.
	a, _ := m.SampleMember(7)
	b, _ := m.SampleMember(7)
	if a != b {
		t.Fatal("sampling must be deterministic per seed")
	}
	if _, ok := Empty().SampleMember(1); ok {
		t.Fatal("empty language cannot be sampled")
	}
}

func TestSampleMemberAlwaysMember(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	f := func() bool {
		m := randMachine(r, 2)
		w, ok := m.SampleMember(uint64(r.Int63()))
		if !ok {
			return m.IsEmpty()
		}
		return m.Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
