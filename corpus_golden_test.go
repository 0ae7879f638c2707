package dprle_test

// Corpus output golden: solver refactors must leave the answers on the
// Figure 12 corpus byte-identical. Each line of testdata/corpus_golden.txt
// digests one ordinary corpus system's output under the full solve and
// under the partial solve for its input variables. A digest covers every
// disjunct in order and, within a disjunct, every variable in sorted order
// with its canonical fingerprint and its shortest witness, so a change in
// disjunct order, granularity or any language shows as a mismatch.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"dprle/internal/core"
	"dprle/internal/nfa"
)

const corpusGoldenFile = "testdata/corpus_golden.txt"

// digestResult hashes a result's disjuncts in order.
func digestResult(t *testing.T, res *core.Result) string {
	t.Helper()
	h := sha256.New()
	for i, a := range res.Assignments {
		fmt.Fprintf(h, "disjunct %d\n", i)
		names := make([]string, 0, len(a))
		for v := range a {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			fp, err := nfa.FingerprintB(nil, a[v])
			if err != nil {
				t.Fatal(err)
			}
			w, ok := a[v].ShortestWitness()
			fmt.Fprintf(h, "%s\n%s\n%q %v\n", v, fp, w, ok)
		}
	}
	return fmt.Sprintf("%d:%x", len(res.Assignments), h.Sum(nil)[:12])
}

// corpusWork totals the exact work counters of one entry point over the
// corpus.
type corpusWork struct{ states, steps int64 }

// corpusGolden renders the golden file's contents from fresh solves and
// totals each entry point's work.
func corpusGolden(t *testing.T) (golden string, solve, solveFor, decide corpusWork) {
	t.Helper()
	var b strings.Builder
	ctx := context.Background()
	for i, ps := range corpusSystems(t) {
		full, err := core.SolveCtx(ctx, ps.Sys, core.Options{})
		if err != nil {
			t.Fatalf("system %d: solve: %v", i, err)
		}
		part, err := core.SolveForCtx(ctx, ps.Sys, ps.Inputs, core.Options{})
		if err != nil {
			t.Fatalf("system %d: solve-for: %v", i, err)
		}
		_, _, du, err := core.DecideCtx(ctx, ps.Sys, ps.Inputs, core.Options{})
		if err != nil {
			t.Fatalf("system %d: decide: %v", i, err)
		}
		solve.states, solve.steps = solve.states+full.Usage.States, solve.steps+full.Usage.Steps
		solveFor.states, solveFor.steps = solveFor.states+part.Usage.States, solveFor.steps+part.Usage.Steps
		decide.states, decide.steps = decide.states+du.States, decide.steps+du.Steps
		fmt.Fprintf(&b, "%d %s solve=%s solvefor=%s\n", i, ps.Sink.Kind,
			digestResult(t, full), digestResult(t, part))
	}
	return b.String(), solve, solveFor, decide
}

// TestCorpusOutputGolden pins the corpus solver output to the recorded
// digests, and the work each entry point does to its exact counters (NFA
// states materialized, solver checkpoints passed; default options, no
// cache). On an intended output change, replace the file's contents with
// the recomputed lines this test prints.
func TestCorpusOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the corpus three times")
	}
	want, err := os.ReadFile(corpusGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got, solve, solveFor, decide := corpusGolden(t)
	if got != string(want) {
		t.Fatalf("corpus output differs from %s; recomputed:\n%s", corpusGoldenFile, got)
	}
	for _, c := range []struct {
		entry     string
		got, want corpusWork
	}{
		{"SolveCtx", solve, corpusWork{states: 17493, steps: 1130}},
		{"SolveForCtx", solveFor, corpusWork{states: 17163, steps: 1088}},
		{"DecideCtx", decide, corpusWork{states: 17493, steps: 1130}},
	} {
		if c.got != c.want {
			t.Errorf("%s over the corpus: %d states, %d steps; want %d, %d",
				c.entry, c.got.states, c.got.steps, c.want.states, c.want.steps)
		}
	}
}
