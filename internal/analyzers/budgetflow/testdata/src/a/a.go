package a

import "budget"

// DeterminizeB models the solver's convention: a construction has one
// budgeted form, and a nil budget means unlimited.

func DeterminizeB(bud *budget.Budget, x int) (int, error) {
	if err := bud.AddStates(1, "determinize"); err != nil {
		return 0, err
	}
	return x + 1, nil
}

// Clean: no budget in scope, so nil is the only budget there is to pass.
func Plain(x int) int {
	d, _ := DeterminizeB(nil, x)
	return d
}

// F1: the error path re-runs the construction with a nil budget while the
// caller's budget is still live.
func DropOnError(bud *budget.Budget, x int) (int, error) {
	y, err := DeterminizeB(bud, x)
	if err != nil {
		z, _ := DeterminizeB(nil, x) // want `budget dropped on this path: DeterminizeB is called with a nil budget while bud may be live`
		return z, nil
	}
	return y, nil
}

// Clean: under "bud == nil" the budget is provably absent, so passing the
// literal nil is the degradation idiom, not a bug.
func Degrade(bud *budget.Budget, x int) int {
	if bud == nil {
		y, _ := DeterminizeB(nil, x)
		return y
	}
	y, err := DeterminizeB(bud, x)
	if err != nil {
		return 0
	}
	return y
}

// F1: a nil budget on the path where the budget is provably live (refined
// non-nil by the guard).
func Mixed(bud *budget.Budget, x int) (int, error) {
	if bud == nil {
		y, _ := DeterminizeB(nil, x) // clean: degradation path
		return y, nil
	}
	y, _ := DeterminizeB(nil, x) // want `budget dropped on this path: DeterminizeB is called with a nil budget while bud may be live`
	return y, nil
}

// F1 on an error path and on the happy path of a locally constructed
// budget.
func Run(x int) (int, error) {
	bud := budget.New(100)
	y, err := DeterminizeB(bud, x)
	if err != nil {
		z, _ := DeterminizeB(nil, x) // want `budget dropped on this path: DeterminizeB is called with a nil budget while bud may be live`
		return z, nil
	}
	w, _ := DeterminizeB(nil, y) // want `budget dropped on this path: DeterminizeB is called with a nil budget while bud may be live`
	return w, nil
}

// Clean: budget threaded through on every path.
func WellThreaded(bud *budget.Budget, x int) (int, error) {
	y, err := DeterminizeB(bud, x)
	if err != nil {
		return 0, err
	}
	return DeterminizeB(bud, y)
}

// Clean: the budget variable is reassigned to nil before the call — a
// deliberate local degradation the analysis respects.
func Shed(bud *budget.Budget, x int) int {
	bud = nil
	y, _ := DeterminizeB(nil, x)
	return y
}

// The *B convention holds for methods too.
type M struct{}

func (m M) MinimizeB(bud *budget.Budget) (int, error) {
	return 1, bud.Check("minimize")
}

// F1 through a method call.
func Shrink(bud *budget.Budget, m M) (int, error) {
	v, _ := m.MinimizeB(nil) // want `budget dropped on this path: MinimizeB is called with a nil budget while bud may be live`
	_ = v
	return m.MinimizeB(bud)
}
