package core

import (
	"testing"

	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// A system with two independent parts: a CI-group over (v1) and an
// expensive-looking free pair (w1, w2).
func partialSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustMatchLanguage(`[\d]+$`))
	c2 := s.MustConst("c2", nfa.Literal("nid_"))
	c3 := s.MustConst("c3", regex.MustMatchLanguage(`'`))
	cw := s.MustConst("cw", regex.MustCompile("[a-z]+"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Cat{Left: c2, Right: Var{"v1"}}, c3)
	s.MustAdd(Var{"w1"}, cw)
	s.MustAdd(Var{"w2"}, cw)
	return s
}

func TestSolveForSubsetOfVars(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveFor(s, []string{"v1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	a := res.Assignments[0]
	// v1 is solved exactly as Solve would.
	if !a.Lookup("v1").Accepts("'5") || a.Lookup("v1").Accepts("5") {
		t.Fatal("v1 not solved")
	}
	// w1/w2 were not requested: they stay at Σ*.
	if !nfa.Equivalent(a.Lookup("w1"), nfa.AnyString()) {
		t.Fatal("unrelated variable should remain Σ*")
	}
}

func TestSolveForFreeVariable(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveFor(s, []string{"w1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignments[0]
	if !nfa.Equivalent(a.Lookup("w1"), regex.MustCompile("[a-z]+")) {
		t.Fatal("w1 not reduced")
	}
	// The CI-group was untouched: v1 stays Σ*.
	if !nfa.Equivalent(a.Lookup("v1"), nfa.AnyString()) {
		t.Fatal("v1 should remain Σ*")
	}
}

func TestSolveForGroupBringsNeighbors(t *testing.T) {
	// Asking for one variable of a CI-group solves the whole group.
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a+"))
	c2 := s.MustConst("c2", regex.MustCompile("b+"))
	c3 := s.MustConst("c3", regex.MustCompile("aabb"))
	s.MustAdd(Var{"x"}, c1)
	s.MustAdd(Var{"y"}, c2)
	s.MustAdd(Cat{Left: Var{"x"}, Right: Var{"y"}}, c3)
	res, err := SolveFor(s, []string{"x"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignments[0]
	if !nfa.Equivalent(a.Lookup("x"), nfa.Literal("aa")) {
		t.Fatal("x wrong")
	}
	if !nfa.Equivalent(a.Lookup("y"), nfa.Literal("bb")) {
		t.Fatal("group neighbor y should be solved too")
	}
}

func TestSolveForUnsatGroup(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a+"))
	c2 := s.MustConst("c2", regex.MustCompile("b+"))
	c3 := s.MustConst("c3", regex.MustCompile("c+"))
	s.MustAdd(Var{"x"}, c1)
	s.MustAdd(Var{"y"}, c2)
	s.MustAdd(Cat{Left: Var{"x"}, Right: Var{"y"}}, c3)
	res, err := SolveFor(s, []string{"x"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat() {
		t.Fatal("group is unsatisfiable")
	}
}

func TestSolveForUnknownVariable(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveFor(s, []string{"nosuch"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("unknown variable should not make the result unsat")
	}
	if !nfa.Equivalent(res.Assignments[0].Lookup("nosuch"), nfa.AnyString()) {
		t.Fatal("unknown variables are unconstrained (Σ*)")
	}
}

func TestSolveForAgreesWithSolve(t *testing.T) {
	s := partialSystem(t)
	full, err := Solve(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := SolveFor(s, []string{"v1", "w1", "w2"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Assignments) != len(part.Assignments) {
		t.Fatalf("assignment counts differ: %d vs %d", len(full.Assignments), len(part.Assignments))
	}
	// Compare variable languages directly on the single assignment.
	for _, v := range []string{"v1", "w1", "w2"} {
		if !nfa.Equivalent(full.Assignments[0].Lookup(v), part.Assignments[0].Lookup(v)) {
			t.Errorf("%s differs between Solve and SolveFor", v)
		}
	}
}

// TestSolveForSharesSolvePipeline pins what SolveFor inherits from running
// Solve's procedure: the Cartesian product over the groups it admits, and
// Options.Minimize reaching the free variables it reduces.
func TestSolveForSharesSolvePipeline(t *testing.T) {
	mk := func() *System {
		s := NewSystem()
		for _, grp := range []string{"A", "B", "C"} {
			c1 := s.MustConst("c1"+grp, regex.MustCompile("x(yy)+"))
			c2 := s.MustConst("c2"+grp, regex.MustCompile("(yy)*z"))
			c3 := s.MustConst("c3"+grp, regex.MustCompile("xyyz|xyyyyz"))
			s.MustAdd(Var{"p" + grp}, c1)
			s.MustAdd(Var{"q" + grp}, c2)
			s.MustAdd(Cat{Left: Var{"p" + grp}, Right: Var{"q" + grp}}, c3)
		}
		return s
	}
	interest := []string{"pA", "qB"}
	res, err := SolveFor(mk(), interest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 4 { // 2^2 group combinations
		t.Fatalf("%d assignments; want 4", len(res.Assignments))
	}
	for i, a := range res.Assignments {
		if !nfa.Equivalent(a.Lookup("pC"), nfa.AnyString()) {
			t.Fatalf("disjunct %d: group C was not requested, pC should remain Σ*", i)
		}
	}

	full, err := Solve(partialSystem(t), Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := SolveFor(partialSystem(t), []string{"w1"}, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SolveFor(partialSystem(t), []string{"w1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := part.Assignments[0].Lookup("w1").NumStates()
	if want := full.Assignments[0].Lookup("w1").NumStates(); got != want {
		t.Fatalf("w1 has %d states under SolveFor with Minimize, %d under Solve", got, want)
	}
	if unmin := plain.Assignments[0].Lookup("w1").NumStates(); got >= unmin {
		t.Fatalf("Minimize left w1 at %d states, %d without it", got, unmin)
	}
}
