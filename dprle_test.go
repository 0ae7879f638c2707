package dprle

import (
	"strings"
	"testing"

	"dprle/internal/nfa"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("input"), "filter", MustMatchLang(`[\d]+$`))
	sys.MustRequire(Concat(sys.Lit("nid_"), V("input")), "unsafe", MustMatchLang(`'`))

	res, err := sys.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("system should be satisfiable")
	}
	input := res.First().Get("input")
	if !input.Accepts("' OR 1=1 ; DROP news --9") {
		t.Fatal("exploit string missing from solution")
	}
	if input.Accepts("123") {
		t.Fatal("benign input wrongly included")
	}
	w, ok := input.Witness()
	if !ok || !input.Accepts(w) {
		t.Fatalf("witness %q invalid", w)
	}
	if !sys.Satisfies(res.First()) {
		t.Fatal("solution should satisfy")
	}
	if err := sys.CheckMaximal(res.First()); err != nil {
		t.Fatal(err)
	}
}

func TestLangAlgebra(t *testing.T) {
	a := MustRegexLang("[ab]+")
	b := MustRegexLang("[bc]+")
	if !a.Intersect(b).Equal(MustRegexLang("b+")) {
		t.Fatal("intersect wrong")
	}
	if !LitLang("x").Union(LitLang("y")).Accepts("y") {
		t.Fatal("union wrong")
	}
	if !LitLang("x").ConcatWith(LitLang("y")).Accepts("xy") {
		t.Fatal("concat wrong")
	}
	if LitLang("x").Complement().Accepts("x") {
		t.Fatal("complement wrong")
	}
	if !LitLang("ab").Star().Accepts("abab") {
		t.Fatal("star wrong")
	}
	if !LitLang("b").SubsetOf(a) || a.SubsetOf(LitLang("b")) {
		t.Fatal("subset wrong")
	}
	if !EmptyLang().IsEmpty() || AnyLang().IsEmpty() {
		t.Fatal("empty/any wrong")
	}
}

func TestZeroLangIsEmpty(t *testing.T) {
	var l Lang
	if !l.IsEmpty() || l.Accepts("") {
		t.Fatal("zero Lang should be ∅")
	}
	if got := l.String(); !strings.Contains(got, "empty") {
		t.Fatalf("String = %q", got)
	}
}

func TestLengthBetween(t *testing.T) {
	l := LengthBetween(2, 4)
	for _, w := range []string{"ab", "abc", "abcd"} {
		if !l.Accepts(w) {
			t.Errorf("should accept %q", w)
		}
	}
	for _, w := range []string{"", "a", "abcde"} {
		if l.Accepts(w) {
			t.Errorf("should reject %q", w)
		}
	}
	unbounded := LengthBetween(3, -1)
	if unbounded.Accepts("ab") || !unbounded.Accepts("abcdefgh") {
		t.Fatal("unbounded length wrong")
	}
}

// TestLengthBetweenMatchesFold pins LengthBetween's machine, state for
// state, to the pairwise Concat fold it was built with before ConcatAll.
func TestLengthBetweenMatchesFold(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {0, 3}, {2, 4}, {3, -1}, {0, -1}, {5, 2}} {
		any := nfa.Class(nfa.AnyByte())
		want := nfa.Epsilon()
		for i := 0; i < c[0]; i++ {
			want = nfa.Concat(want, any)
		}
		if c[1] < 0 {
			want = nfa.Concat(want, nfa.Star(any))
		}
		for i := c[0]; i < c[1]; i++ {
			want = nfa.Concat(want, nfa.Optional(any))
		}
		if got := LengthBetween(c[0], c[1]).machine(); got.Marshal() != want.Marshal() {
			t.Errorf("LengthBetween(%d, %d) differs from the Concat fold:\n%s\nwant:\n%s",
				c[0], c[1], got.Marshal(), want.Marshal())
		}
	}
}

func TestLengthRestrictionInSystem(t *testing.T) {
	// §3.1.2's extension: restrict a variable to strings of length 4.
	sys := NewSystem()
	sys.MustRequire(V("v"), "digits", MustMatchLang(`^[\d]+$`))
	sys.MustRequire(V("v"), "len4", LengthBetween(4, 4))
	res, err := sys.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.First().Get("v")
	if !v.Accepts("1234") || v.Accepts("123") || v.Accepts("12345") {
		t.Fatal("length restriction not applied")
	}
}

func TestOrExpression(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(Or(V("a"), V("b")), "c", MustRegexLang("x+"))
	res, err := sys.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b"} {
		if !res.First().Get(v).Equal(MustRegexLang("x+")) {
			t.Errorf("%s should be x+", v)
		}
	}
}

func TestDecide(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("v"), "a", MustRegexLang("a+"))
	sys.MustRequire(V("v"), "b", MustRegexLang("b+"))
	if _, ok, err := sys.Decide([]string{"v"}, Options{}); err != nil || ok {
		t.Fatalf("disjoint constraints must be undecidable-to-sat: ok=%v err=%v", ok, err)
	}

	sys2 := NewSystem()
	sys2.MustRequire(V("v"), "a", MustRegexLang("a+"))
	a, ok, err := sys2.Decide([]string{"v"}, Options{})
	if err != nil || !ok {
		t.Fatalf("Decide failed: %v/%v", ok, err)
	}
	if w, _ := a.Get("v").Witness(); w != "a" {
		t.Fatalf("witness = %q", w)
	}
}

func TestWitnesses(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("x"), "lit", LitLang("hello"))
	res, err := sys.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := res.First().Witnesses()
	if err != nil || ws["x"] != "hello" {
		t.Fatalf("witnesses = %v, err %v", ws, err)
	}
}

func TestNamedConstantConflict(t *testing.T) {
	sys := NewSystem()
	sys.MustNamed("k", LitLang("a"))
	if _, err := sys.Named("k", LitLang("b")); err == nil {
		t.Fatal("conflicting constant names must error")
	}
}

func TestRegexErrorsPropagate(t *testing.T) {
	if _, err := RegexLang("("); err == nil {
		t.Fatal("bad pattern must error")
	}
	if _, err := MatchLang("a^b"); err == nil {
		t.Fatal("interior anchor must error")
	}
}

func TestFirstPanicsOnUnsat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("First must panic on unsat result")
		}
	}()
	(&Result{}).First()
}

func TestNewAssignmentAndCheckers(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("v"), "c", MustRegexLang("a*"))
	good := NewAssignment(map[string]Lang{"v": MustRegexLang("a*")})
	if !sys.Satisfies(good) {
		t.Fatal("a* satisfies v ⊆ a*")
	}
	if err := sys.CheckMaximal(good); err != nil {
		t.Fatal(err)
	}
	small := NewAssignment(map[string]Lang{"v": LitLang("a")})
	if err := sys.CheckMaximal(small); err == nil {
		t.Fatal("strict subset must fail maximality")
	}
	bad := NewAssignment(map[string]Lang{"v": LitLang("b")})
	if sys.Satisfies(bad) {
		t.Fatal("b does not satisfy v ⊆ a*")
	}
}

func TestEnumerate(t *testing.T) {
	l := MustRegexLang("a|bb")
	got := l.Enumerate(3, 10)
	if len(got) != 2 || got[0] != "a" || got[1] != "bb" {
		t.Fatalf("Enumerate = %v", got)
	}
}

func TestMinimizeAndStates(t *testing.T) {
	l := MustRegexLang("(a|a|a)b")
	min := l.Minimize()
	if !min.Equal(l) {
		t.Fatal("Minimize changed the language")
	}
	if min.States() > l.States() {
		t.Fatal("Minimize should not grow the machine")
	}
	if !strings.Contains(l.Dot("m"), "digraph") {
		t.Fatal("Dot output malformed")
	}
}

func TestSystemString(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("v"), "c", LitLang("x"))
	if !strings.Contains(sys.String(), "v ⊆ c") {
		t.Fatalf("String = %q", sys.String())
	}
	if len(sys.Vars()) != 1 || sys.Vars()[0] != "v" {
		t.Fatalf("Vars = %v", sys.Vars())
	}
}

func TestLangAnalysisHelpers(t *testing.T) {
	l := MustRegexLang("ab|cdef")
	if l.IsInfinite() {
		t.Fatal("finite language misreported")
	}
	if min, _ := l.MinLen(); min != 2 {
		t.Fatalf("MinLen = %d", min)
	}
	if max, inf, _ := l.MaxLen(); inf || max != 4 {
		t.Fatalf("MaxLen = %d/%v", max, inf)
	}
	counts := l.Count(4)
	if counts[2] != 1 || counts[4] != 1 || counts[3] != 0 {
		t.Fatalf("Count = %v", counts)
	}
	star := MustRegexLang("x*")
	if !star.IsInfinite() {
		t.Fatal("x* must be infinite")
	}
	w, ok := star.Sample(3)
	if !ok || !star.Accepts(w) {
		t.Fatalf("Sample = %q/%v", w, ok)
	}
}

func TestSolveForFacade(t *testing.T) {
	sys := NewSystem()
	sys.MustRequire(V("a"), "ca", MustRegexLang("x+"))
	sys.MustRequire(V("b"), "cb", MustRegexLang("y+"))
	res, err := sys.SolveFor([]string{"a"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.First()
	if !a.Get("a").Equal(MustRegexLang("x+")) {
		t.Fatal("a not solved")
	}
	if !a.Get("b").Equal(AnyLang()) {
		t.Fatal("b should remain Σ* under partial solving")
	}
}

func TestLangMarshalRoundTrip(t *testing.T) {
	l := MustMatchLang(`[\d]+$`)
	back, err := UnmarshalLang(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(l) {
		t.Fatal("round trip changed the language")
	}
	if _, err := UnmarshalLang("garbage"); err == nil {
		t.Fatal("bad input must error")
	}
}
