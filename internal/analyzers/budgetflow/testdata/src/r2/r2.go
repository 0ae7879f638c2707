package r2

import "budget"

// DeterminizeB models the solver's convention: a construction has one
// budgeted form, and a nil budget means unlimited.
func DeterminizeB(bud *budget.Budget, x int) (int, error) {
	if err := bud.AddStates(1, "determinize"); err != nil {
		return 0, err
	}
	return x + 1, nil
}

// Clean: a literal nil budget cannot fail, so its error may be dropped.
func Plain(x int) int {
	d, _ := DeterminizeB(nil, x)
	return d
}

// Clean: the budget is threaded through and its error returned.
func SolveWellB(bud *budget.Budget, x int) (int, error) {
	y, err := DeterminizeB(bud, x)
	if err != nil {
		return 0, err
	}
	return y, nil
}

// R2: discarding a live budget's error hides exhaustion.
func UseB(bud *budget.Budget, x int) int {
	y, _ := DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
	return y
}

// R2: a bare expression statement discards the error too.
func DropB(bud *budget.Budget, x int) {
	DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
}

// Methods follow the same convention.
type M struct{}

func (m M) MinimizeB(bud *budget.Budget) (int, error) {
	return 1, bud.Check("minimize")
}

// Clean: the nil-budget contract holds for methods too.
func (m M) Size() int {
	v, _ := m.MinimizeB(nil)
	return v
}

// The escape hatch suppresses a finding, but only with a reason.
func IgnoredB(bud *budget.Budget, x int) int {
	//lint:ignore dprlelint/budgetflow measuring the unbudgeted baseline on purpose
	y, _ := DeterminizeB(bud, x)
	return y
}

func NotIgnoredB(bud *budget.Budget, x int) int {
	//lint:ignore dprlelint/budgetflow
	y, _ := DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
	return y
}

// R2 inside a func literal: the declaration's walk reports it, and the
// literal's own dataflow pass does not report it again.
func ClosureB(bud *budget.Budget, x int) func() {
	return func() {
		DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
	}
}
