package experiments

import (
	"runtime"
	"testing"
	"time"

	"dprle/internal/core"
	"dprle/internal/corpus"
	"dprle/internal/nfa"
)

// TestSecureRawConstantsUnderBudget is the acceptance check for the
// resource-governance work: the paper's pathological warp/secure case with
// raw (uncanonicalized) constants — about 2 s of solving when unbudgeted,
// against a third of a second canonicalized — completes promptly under a
// 250 ms per-path deadline. The exhausted paths are recorded, any results
// that do come back are verified partials, and no solver goroutines leak.
func TestSecureRawConstantsUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second budget run")
	}
	d, ok := corpus.DefectByName("warp/secure")
	if !ok {
		t.Fatal("warp/secure defect missing from the corpus")
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	row, err := RunDefectBudget(d, core.Options{RawConstants: true}, 250*time.Millisecond, 0, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted run failed outright: %v", err)
	}
	if row.ExhaustedPaths == 0 {
		t.Error("no path recorded a budget trip; the pathological solve should exhaust a 250ms deadline")
	}
	// A handful of paths, each bounded by 250 ms, plus parsing/symexec overhead.
	if elapsed > 60*time.Second {
		t.Errorf("budgeted analysis took %v; the deadline is not being honored", elapsed)
	}
	if row.SolveStates == 0 {
		t.Error("SolveStates = 0: budget counters were not propagated")
	}
	t.Logf("TS=%v states=%d steps=%d exhausted=%d findings=%d",
		row.TS, row.SolveStates, row.SolveSteps, row.ExhaustedPaths, row.Findings)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOrdinaryDefectUnaffectedByBudget checks a fast defect still solves
// identically when generous budgets are configured.
func TestOrdinaryDefectUnaffectedByBudget(t *testing.T) {
	d, ok := corpus.DefectByName("utopia/styles")
	if !ok {
		t.Fatal("utopia/styles defect missing from the corpus")
	}
	plain, err := RunDefect(d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := RunDefectBudget(d, core.Options{}, 30*time.Second, 1<<30, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.ExhaustedPaths != 0 {
		t.Errorf("ExhaustedPaths = %d under generous budgets", budgeted.ExhaustedPaths)
	}
	if budgeted.Findings != plain.Findings {
		t.Errorf("findings changed under budget: %d vs %d", budgeted.Findings, plain.Findings)
	}
	if budgeted.SolveStates == 0 || budgeted.SolveSteps == 0 {
		t.Errorf("budget counters empty: states=%d steps=%d", budgeted.SolveStates, budgeted.SolveSteps)
	}
}

// TestSecureVerdictCounters pins warp/secure's verdict by its exact work
// counters. The solve runs under a step cap four times the pinned count, so
// a minimizer that goes quadratic again (one checkpoint per refinement
// round, thousands of rounds on the query literal) trips the cap within
// about a second instead of taking many seconds or passing.
func TestSecureVerdictCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("solves warp/secure")
	}
	const states, steps = 44942, 123
	d, _ := corpus.DefectByName("warp/secure")
	row, err := RunDefectBudget(d, core.Options{}, 0, 0, 4*steps)
	if err != nil {
		t.Fatal(err)
	}
	if row.Findings != 1 || row.Exploit != "'0" || row.ExhaustedPaths != 0 {
		t.Fatalf("%d findings, exploit %q, %d exhausted paths; want 1, \"'0\", 0",
			row.Findings, row.Exploit, row.ExhaustedPaths)
	}
	if row.SolveStates != states || row.SolveSteps != steps {
		t.Errorf("solve: %d states, %d steps; want %d, %d", row.SolveStates, row.SolveSteps, states, steps)
	}

	// Canonicalizing the system's constants shrinks them from 11,320 to
	// 7,016 states, the perfbench nfa.canon_states_in/out of seed 1.
	systems, err := defectSystems(d)
	if err != nil {
		t.Fatal(err)
	}
	var in, out int
	for _, ps := range systems {
		for _, n := range core.BuildGraph(ps.Sys).Nodes {
			if n.Kind != core.ConstNode {
				continue
			}
			m, err := nfa.MinimizedB(nil, n.Con.Lang)
			if err != nil {
				t.Fatal(err)
			}
			in += n.Con.Lang.NumStates()
			out += m.NumStates()
		}
	}
	if in != 11320 || out != 7016 {
		t.Errorf("canonicalizing the constants: %d → %d states; want 11320 → 7016", in, out)
	}
}
