package nfa

import "testing"

// buildPipelineMachine runs a representative slice of the solver's machine
// pipeline from scratch: union and concatenation with a seam tag, a product,
// the subset construction, and minimization. Determinize and Minimize hash
// state sets through Go maps internally, so a freshly built machine exposes
// any map-iteration-order leak in state numbering.
func buildPipelineMachine() *NFA {
	a := Concat(Literal("ab"), Star(Union(Literal("c"), Literal("dd"))))
	b := ConcatTagged(Literal("a"), Star(Class(Range('a', 'd'))), 7)
	p := unbudgeted(IntersectB(nil, a, b))
	u := Union(p, Literal("abe"))
	return unbudgeted(MinimizedB(nil, u))
}

// TestSerializeDeterministic rebuilds the pipeline machine repeatedly and
// requires the wire format and the DOT rendering to be byte-identical: state
// numbering, edge order, and label formatting may not depend on map
// iteration order anywhere in the construction chain.
func TestSerializeDeterministic(t *testing.T) {
	const runs = 20
	first := buildPipelineMachine()
	wantWire := first.Marshal()
	wantDot := first.Dot("m")
	if wantWire == "" || wantDot == "" {
		t.Fatal("empty serialization")
	}
	for i := 1; i < runs; i++ {
		m := buildPipelineMachine()
		if got := m.Marshal(); got != wantWire {
			t.Fatalf("run %d wire format differs:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, wantWire, i, got)
		}
		if got := m.Dot("m"); got != wantDot {
			t.Fatalf("run %d DOT rendering differs:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, wantDot, i, got)
		}
	}
}

// TestSerializeRoundTripStable checks that deserializing and re-serializing
// is the identity on the wire format, so cached machines stay byte-stable
// across load/store cycles.
func TestSerializeRoundTripStable(t *testing.T) {
	wire := buildPipelineMachine().Marshal()
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Marshal(); got != wire {
		t.Fatalf("round trip changed the wire format:\n--- before ---\n%s\n--- after ---\n%s", wire, got)
	}
}
