package strlang_test

import (
	"path/filepath"
	"testing"

	"dprle/internal/analysis"
	"dprle/internal/analysis/analysistest"
	"dprle/internal/analyzers/strlang"
)

func TestBasicSinks(t *testing.T) {
	analysistest.Run(t, "testdata", strlang.Analyzer, "strlang_basic")
}

// TestSeededSQLInjection is the sqlgen-style seeded defect: a query built
// with fmt.Sprintf from unconstrained input, flagged purely from the
// built-in sink table (no annotations in the fixture).
func TestSeededSQLInjection(t *testing.T) {
	analysistest.Run(t, "testdata", strlang.Analyzer, "strlang_sql")
}

func TestSubsetDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", strlang.Analyzer, "strlang_annot")
}

// TestAdversarialLoops pins termination: every function widens instead of
// diverging, and the widened sinks are reported.
func TestAdversarialLoops(t *testing.T) {
	analysistest.Run(t, "testdata", strlang.Analyzer, "strlang_loop")
}

func TestInterprocSummaries(t *testing.T) {
	analysistest.Run(t, "testdata", strlang.Analyzer, "strlang_interproc")
}

// TestDischargeAccounting checks strlang's counters over the fixture
// packages: every discharged constraint is either a solver call or a memo
// hit, and the loop fixtures widen. The counts themselves are not pinned:
// the discharge memo lives for the process, so they depend on which tests
// ran first.
func TestDischargeAccounting(t *testing.T) {
	loader := analysis.NewSourceLoader(filepath.Join("testdata", "src"))
	var total analysis.AnalyzerStats
	for _, name := range []string{"strlang_annot", "strlang_basic", "strlang_interproc", "strlang_loop", "strlang_sql"} {
		pkg, err := loader.Load(name)
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		_, stats, err := analysis.RunStats(pkg, loader.Fset, []*analysis.Analyzer{strlang.Analyzer})
		if err != nil {
			t.Fatalf("analyzing %s: %v", name, err)
		}
		total.Merge(stats[strlang.Analyzer.Name])
	}
	c := total.Counters
	discharged, calls, hits := c[strlang.StatDischarged], c[strlang.StatSolverCalls], c[strlang.StatCacheHits]
	if discharged == 0 || discharged != calls+hits {
		t.Errorf("%d constraints discharged, want > 0 and = %d solver calls + %d cache hits", discharged, calls, hits)
	}
	if c[strlang.StatWidenings] == 0 {
		t.Error("the loop fixtures did not exercise widening")
	}
	t.Logf("discharged %d = %d solver calls + %d cache hits; %d widenings", discharged, calls, hits, c[strlang.StatWidenings])
}
