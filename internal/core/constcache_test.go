package core_test

import (
	"testing"

	"dprle/internal/core"
	"dprle/internal/experiments"
	"dprle/internal/nfa"
)

// TestConstComplementMatchesRaw checks the complement the constant cache
// derives from a constant's minimal DFA against the complement of the raw
// constant machine, for every distinct constant of the Figure 12 corpus,
// warp/secure's included.
func TestConstComplementMatchesRaw(t *testing.T) {
	systems, err := experiments.CorpusSystems(false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ps := range systems {
		for _, n := range core.BuildGraph(ps.Sys).Nodes {
			if n.Kind != core.ConstNode {
				continue
			}
			key := n.Con.Lang.CanonicalKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			got, err := core.ConstComplement(n.Con)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nfa.ComplementB(nil, n.Con.Lang)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := nfa.FingerprintB(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			fw, err := nfa.FingerprintB(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if fg != fw {
				t.Fatalf("%s: complement of constant %s differs from the raw complement", ps.Sink.Kind, n.Name)
			}
		}
	}
	t.Logf("%d distinct constants", len(seen))
}
