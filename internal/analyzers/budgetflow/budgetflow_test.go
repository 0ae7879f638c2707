package budgetflow_test

import (
	"testing"

	"dprle/internal/analysis/analysistest"
	"dprle/internal/analyzers/budgetflow"
)

func TestBudgetflow(t *testing.T) {
	analysistest.Run(t, "testdata", budgetflow.Analyzer, "a", "f3")
}

// TestBudgetflowR2 covers R2, the discarded budget error.
func TestBudgetflowR2(t *testing.T) {
	analysistest.Run(t, "testdata", budgetflow.Analyzer, "r2")
}

// TestBudgetflowC1C2 covers C1 and C2, the context-derived budget rules.
func TestBudgetflowC1C2(t *testing.T) {
	analysistest.Run(t, "testdata", budgetflow.Analyzer, "c1c2")
}
