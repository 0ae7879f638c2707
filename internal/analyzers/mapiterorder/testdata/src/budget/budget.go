// Package budget is a minimal stand-in for dprle/internal/budget (see the
// budgetflow fixture of the same name).
package budget

type Budget struct{ remaining int64 }

func (b *Budget) AddStates(n int64, stage string) error {
	if b == nil {
		return nil
	}
	b.remaining -= n
	return nil
}
