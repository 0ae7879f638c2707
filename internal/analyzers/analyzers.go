// Package analyzers registers the dprlelint static-analysis suite: the
// project-specific passes that turn the solver's coding conventions
// (budget threading, deterministic iteration, panic-free API, context
// propagation, canonical cache keys) into machine-checked invariants.
// See DESIGN.md §7.
package analyzers

import (
	"dprle/internal/analysis"
	"dprle/internal/analyzers/budgetflow"
	"dprle/internal/analyzers/cachekey"
	"dprle/internal/analyzers/locksafe"
	"dprle/internal/analyzers/mapiterorder"
	"dprle/internal/analyzers/nilness"
	"dprle/internal/analyzers/panicguard"
	"dprle/internal/analyzers/sharemut"
	"dprle/internal/analyzers/strlang"
)

// All returns every analyzer in the suite, sorted by name.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		budgetflow.Analyzer,
		cachekey.Analyzer,
		locksafe.Analyzer,
		mapiterorder.Analyzer,
		nilness.Analyzer,
		panicguard.Analyzer,
		sharemut.Analyzer,
		strlang.Analyzer,
	}
}
