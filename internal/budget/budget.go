// Package budget implements resource governance for the solver pipeline: a
// wall-clock deadline (via context.Context), a bound on NFA states
// materialized by the worst-case-exponential constructions (product,
// subset construction, quotients), and a bound on coarse solver steps.
//
// One *Budget is threaded from the public API through internal/core down
// into the inner loops of internal/nfa. The expensive constructions call
// AddStates per materialized state; solver loop heads call Check. Both are
// cheap (an atomic add, with the context polled on an amortized schedule),
// safe for concurrent use, and sticky: once any caller trips the budget,
// every subsequent probe returns the same *Exhausted immediately, so deep
// call stacks unwind fast.
//
// A nil *Budget is valid everywhere and means "unlimited": all probes
// return nil and Usage is zero. Each construction has one budgeted form,
// and a caller without a budget passes nil to it at no cost
// (nfa.IntersectB(nil, …)).
package budget

import (
	"context"
	"fmt"
	"sync/atomic"

	"dprle/internal/faultinject"
)

// Kind identifies which budget tripped.
type Kind string

// The exhaustion kinds.
const (
	Deadline Kind = "deadline"       // the context's deadline passed
	Canceled Kind = "canceled"       // the context was canceled
	States   Kind = "max-states"     // MaxStates NFA states were materialized
	Steps    Kind = "max-steps"      // MaxSteps solver checkpoints were hit
	Injected Kind = "fault-injected" // a test fault fired (faultinject)
)

// Limits bounds a solve. Zero fields are unlimited; the wall-clock deadline
// comes from the context passed to New.
type Limits struct {
	// MaxStates caps the number of NFA states materialized by the
	// worst-case-exponential constructions (product, determinization,
	// quotient exploration) across the whole solve.
	MaxStates int64
	// MaxSteps caps the number of coarse solver checkpoints (seam combos
	// evaluated, maximalization probes, group stages).
	MaxSteps int64
}

// Usage reports the counters a solve consumed.
type Usage struct {
	// States is the number of NFA states materialized by the budgeted
	// constructions.
	States int64
	// Steps is the number of solver checkpoints passed.
	Steps int64
	// Exhausted reports that the budget tripped during the solve.
	Exhausted bool
}

// Exhausted is the structured error a tripped budget produces: which bound
// tripped, at which pipeline stage, and the counters consumed so far.
type Exhausted struct {
	Kind  Kind
	Stage string // pipeline stage of the probe that tripped, e.g. "nfa.intersect"
	// States and Steps are the counter values at the moment of the trip.
	States int64
	Steps  int64
	// Limit is the bound that tripped (0 for deadline/cancellation/fault).
	Limit int64
	cause error // the context error for Deadline/Canceled, else nil
}

// Error implements error.
func (e *Exhausted) Error() string {
	return fmt.Sprintf("budget exhausted: %s at %s (states=%d steps=%d limit=%d)",
		e.Kind, e.Stage, e.States, e.Steps, e.Limit)
}

// Unwrap exposes the underlying context error, so
// errors.Is(err, context.DeadlineExceeded) works through an Exhausted.
func (e *Exhausted) Unwrap() error { return e.cause }

// Budget carries the limits and counters of one solve. All methods are safe
// for concurrent use and valid on a nil receiver (unlimited, uncounted).
//
// The nil contract is load-bearing: Check and AddStates return nil
// immediately on a nil receiver, before consulting limits or fault
// injection, so a call like IntersectB(nil, ...) can never fail. Callers
// without a budget discard the error on exactly that basis, and the
// budgetflow analyzer permits a discarded *B error only when the budget
// argument is the literal nil.
type Budget struct {
	ctx     context.Context
	limits  Limits
	states  atomic.Int64
	steps   atomic.Int64
	tripped atomic.Pointer[Exhausted]
}

// New returns a budget drawing its deadline and cancellation from ctx and
// its counter bounds from l. A nil ctx means context.Background().
func New(ctx context.Context, l Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, limits: l}
}

// ctxPollMask amortizes context polling on the per-state accounting path:
// the context is consulted once every ctxPollMask+1 states. Checkpoints
// (Check) always poll, since they sit at coarse loop heads.
const ctxPollMask = 63

// trip records the first exhaustion and returns it; later trips return the
// original, so every unwinding caller reports the same event.
func (b *Budget) trip(kind Kind, stage string, limit int64, cause error) *Exhausted {
	e := &Exhausted{
		Kind: kind, Stage: stage, Limit: limit, cause: cause,
		States: b.states.Load(), Steps: b.steps.Load(),
	}
	if b.tripped.CompareAndSwap(nil, e) {
		return e
	}
	return b.tripped.Load()
}

func (b *Budget) pollCtx(stage string) error {
	if err := b.ctx.Err(); err != nil {
		kind := Canceled
		if err == context.DeadlineExceeded {
			kind = Deadline
		}
		return b.trip(kind, stage, 0, err)
	}
	return nil
}

// Check is a cancellation checkpoint for solver loop heads: it counts one
// step, polls the context, and enforces MaxSteps. It returns the sticky
// *Exhausted once the budget has tripped.
//
// Check panics deliberately when the test-only faultinject.Crash point is
// armed: the chaos harness uses it to simulate an internal invariant
// violation at an arbitrary solver depth and prove the per-request recover
// boundaries hold. Production runs never arm faults.
func (b *Budget) Check(stage string) error {
	if b == nil {
		return nil
	}
	if e := b.tripped.Load(); e != nil {
		return e
	}
	if faultinject.Fire(faultinject.Crash) {
		panic(fmt.Sprintf("faultinject: injected crash at %s", stage))
	}
	n := b.steps.Add(1)
	if faultinject.Fire(faultinject.Checkpoint) {
		return b.trip(Injected, stage, n, nil)
	}
	if b.limits.MaxSteps > 0 && n > b.limits.MaxSteps {
		return b.trip(Steps, stage, b.limits.MaxSteps, nil)
	}
	return b.pollCtx(stage)
}

// AddStates accounts n NFA states materialized at the given stage and
// enforces MaxStates. The context is polled once every ctxPollMask+1
// states, so even a single long-running construction observes deadlines
// promptly without paying a context poll per state.
func (b *Budget) AddStates(n int64, stage string) error {
	if b == nil {
		return nil
	}
	if e := b.tripped.Load(); e != nil {
		return e
	}
	if faultinject.Fire(faultinject.Alloc) {
		return b.trip(Injected, stage, 0, nil)
	}
	v := b.states.Add(n)
	if b.limits.MaxStates > 0 && v > b.limits.MaxStates {
		return b.trip(States, stage, b.limits.MaxStates, nil)
	}
	if v&ctxPollMask < n {
		return b.pollCtx(stage)
	}
	return nil
}

// Preflight polls the context once without counting a step or consulting
// fault injection, so entry points can reject an already-expired context
// before doing any work. It returns the sticky *Exhausted once the budget
// has tripped.
func (b *Budget) Preflight(stage string) error {
	if b == nil {
		return nil
	}
	if e := b.tripped.Load(); e != nil {
		return e
	}
	return b.pollCtx(stage)
}

// Inject trips the budget with the Injected kind at the given stage. It
// backs the faultinject probes that live outside Check/AddStates (the gci
// worklist pop, the group Cartesian product): when such a site fires, the
// solver calls Inject so the whole pipeline unwinds with the same sticky
// *Exhausted any organic trip would produce. On a nil receiver it returns
// a bare *Exhausted, so the probe still yields a structured error.
func (b *Budget) Inject(stage string) error {
	if b == nil {
		return &Exhausted{Kind: Injected, Stage: stage}
	}
	return b.trip(Injected, stage, 0, nil)
}

// Err returns the recorded exhaustion, or nil while the budget holds.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if e := b.tripped.Load(); e != nil {
		return e
	}
	return nil
}

// Usage snapshots the counters consumed so far.
func (b *Budget) Usage() Usage {
	if b == nil {
		return Usage{}
	}
	return Usage{
		States:    b.states.Load(),
		Steps:     b.steps.Load(),
		Exhausted: b.tripped.Load() != nil,
	}
}
