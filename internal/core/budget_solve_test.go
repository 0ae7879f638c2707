package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
	"dprle/internal/nfa"
)

// complementBomb returns (a|b)* a (a|b)^n — the classic NFA whose
// determinization has ~2^n states. Any solve path that complements or
// canonicalizes it blows up, which makes it the test vehicle for budget
// trips: building the NFA itself is linear.
func complementBomb(n int) *nfa.NFA {
	ab := nfa.Class(nfa.Range('a', 'b'))
	m := nfa.Concat(nfa.Star(ab), nfa.Class(nfa.Singleton('a')))
	for i := 0; i < n; i++ {
		m = nfa.Concat(m, ab)
	}
	return m
}

// bombSystem is a one-group system v1·v2 ⊆ bomb(n) whose solve must
// determinize the bomb (during constant canonicalization or the
// verification subset check), tripping any reasonable budget.
func bombSystem(n int) *System {
	s := NewSystem()
	c := s.MustConst("bomb", complementBomb(n))
	s.MustAdd(Cat{Left: Var{Name: "v1"}, Right: Var{Name: "v2"}}, c)
	return s
}

// smallGroupSystem is a fast one-group system v1·v2 ⊆ {"ab"} with three
// seam solutions: (ε,ab), (a,b), (ab,ε).
func smallGroupSystem() *System {
	s := NewSystem()
	c := s.MustConst("c", nfa.Literal("ab"))
	s.MustAdd(Cat{Left: Var{Name: "v1"}, Right: Var{Name: "v2"}}, c)
	return s
}

func TestSolveCtxDeadlineUnwindsPromptly(t *testing.T) {
	s := bombSystem(24)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := SolveCtx(ctx, s, Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a budget error, got nil")
	}
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Kind != budget.Deadline {
		t.Errorf("Kind = %q, want %q", ex.Kind, budget.Deadline)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false, want true")
	}
	if elapsed > 3*time.Second {
		t.Errorf("solver took %v to honor a 200ms deadline", elapsed)
	}
	if res == nil {
		t.Fatal("SolveCtx returned a nil result")
	}
	if !res.Usage.Exhausted {
		t.Error("Usage.Exhausted = false after a trip")
	}
	if res.Usage.States == 0 {
		t.Error("Usage.States = 0: no work was accounted before the trip")
	}
}

func TestSolveCtxMaxStatesTrips(t *testing.T) {
	s := bombSystem(24)
	res, err := SolveCtx(context.Background(), s, Options{Limits: budget.Limits{MaxStates: 5000}})
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Kind != budget.States {
		t.Errorf("Kind = %q, want %q", ex.Kind, budget.States)
	}
	if ex.Limit != 5000 {
		t.Errorf("Limit = %d, want 5000", ex.Limit)
	}
	if ex.Stage == "" {
		t.Error("Stage is empty")
	}
	if res.Usage.States < 5000 {
		t.Errorf("Usage.States = %d, want >= the 5000 limit", res.Usage.States)
	}
}

func TestSolveCtxCancellation(t *testing.T) {
	s := bombSystem(24)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SolveCtx(ctx, s, Options{})
	if time.Since(start) > 3*time.Second {
		t.Errorf("solver ignored cancellation for %v", time.Since(start))
	}
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Kind != budget.Canceled {
		t.Errorf("Kind = %q, want %q", ex.Kind, budget.Canceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("errors.Is(err, context.Canceled) = false, want true")
	}
}

func TestSolveCtxUnsatStaysProvenWithoutBudgetError(t *testing.T) {
	s := NewSystem()
	cx := s.MustConst("x", nfa.Literal("x"))
	cy := s.MustConst("y", nfa.Literal("y"))
	s.MustAdd(Var{Name: "v"}, cx)
	s.MustAdd(Var{Name: "v"}, cy)
	res, err := SolveCtx(context.Background(), s, Options{Limits: budget.Limits{MaxStates: 1 << 20}})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if res.Sat() {
		t.Fatal("disjoint literal constraints reported sat")
	}
}

// TestSolveCtxExhaustedUnknownNotUnsat pins the degradation contract: an
// empty result with a budget error means "unknown", and the solver must not
// have fabricated the unsat claim. The bomb system is genuinely satisfiable
// (e.g. v1·v2 = the bomb language itself), so any unsat proof here would be
// wrong.
func TestSolveCtxExhaustedUnknownNotUnsat(t *testing.T) {
	res, err := SolveCtx(context.Background(), bombSystem(24), Options{Limits: budget.Limits{MaxStates: 2000}})
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if !res.Usage.Exhausted {
		t.Error("Usage.Exhausted = false")
	}
}

// TestFaultInjectionCheckpointSweep arms the fault injector at every
// checkpoint ordinal the baseline solve passes and proves each trip point
// unwinds cleanly: no panic, and every returned assignment still satisfies
// the system. It also requires at least one trip point to surface verified
// partial results (the three-solution group makes mid-enumeration trips
// land between combos).
func TestFaultInjectionCheckpointSweep(t *testing.T) {
	base, err := SolveCtx(context.Background(), smallGroupSystem(), Options{})
	if err != nil {
		t.Fatalf("baseline solve failed: %v", err)
	}
	if !base.Sat() {
		t.Fatal("baseline unsat")
	}
	partialWithError := 0
	for n := int64(1); n <= base.Usage.Steps+1; n++ {
		disarm := faultinject.Arm(faultinject.Checkpoint, n)
		sys := smallGroupSystem()
		res, err := SolveCtx(context.Background(), sys, Options{})
		disarm()
		if res == nil {
			t.Fatalf("n=%d: nil result", n)
		}
		for i, a := range res.Assignments {
			if !Satisfies(sys, a) {
				t.Errorf("n=%d: assignment %d does not satisfy the system", n, i)
			}
		}
		if err != nil {
			var ex *budget.Exhausted
			if !errors.As(err, &ex) {
				t.Errorf("n=%d: err = %v, want *budget.Exhausted", n, err)
			} else if ex.Kind != budget.Injected {
				t.Errorf("n=%d: Kind = %q, want %q", n, ex.Kind, budget.Injected)
			}
			if res.Sat() {
				partialWithError++
			}
		} else if !res.Sat() {
			t.Errorf("n=%d: clean run lost satisfiability", n)
		}
	}
	if partialWithError == 0 {
		t.Error("no trip point produced verified partial results alongside the error")
	}
}

// TestFaultInjectionAllocSweep does the same over NFA-state allocations,
// sampling ordinals up to the baseline's state count.
func TestFaultInjectionAllocSweep(t *testing.T) {
	base, err := SolveCtx(context.Background(), smallGroupSystem(), Options{})
	if err != nil {
		t.Fatalf("baseline solve failed: %v", err)
	}
	var points []int64
	for n := int64(1); n <= base.Usage.States+1; n = n*2 + 1 {
		points = append(points, n)
	}
	for _, n := range points {
		disarm := faultinject.Arm(faultinject.Alloc, n)
		sys := smallGroupSystem()
		res, err := SolveCtx(context.Background(), sys, Options{})
		disarm()
		if res == nil {
			t.Fatalf("n=%d: nil result", n)
		}
		for i, a := range res.Assignments {
			if !Satisfies(sys, a) {
				t.Errorf("n=%d: assignment %d does not satisfy the system", n, i)
			}
		}
		if err != nil {
			var ex *budget.Exhausted
			if !errors.As(err, &ex) {
				t.Errorf("n=%d: err = %v, want *budget.Exhausted", n, err)
			}
		}
	}
}

// TestCancelMidGroupsNoGoroutineLeak cancels a solve with two pathological
// CI-groups mid-flight: the solve reports the cancellation as a budget trip
// and leaves no goroutine behind.
func TestCancelMidGroupsNoGoroutineLeak(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("bomb1", complementBomb(22))
	c2 := s.MustConst("bomb2", complementBomb(23))
	s.MustAdd(Cat{Left: Var{Name: "a1"}, Right: Var{Name: "a2"}}, c1)
	s.MustAdd(Cat{Left: Var{Name: "b1"}, Right: Var{Name: "b2"}}, c2)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := SolveCtx(ctx, s, Options{})
	if err == nil {
		t.Fatal("expected a budget error from cancellation")
	}
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if res == nil || !res.Usage.Exhausted {
		t.Error("usage not recorded as exhausted")
	}

	// Allow the canceller goroutine and any runtime noise a moment to
	// drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolveForCtxBudget exercises the partial-solve entry point under a
// state cap: either it completes, or it reports exhaustion with verified
// assignments only.
func TestSolveForCtxBudget(t *testing.T) {
	sys := bombSystem(24)
	res, err := SolveForCtx(context.Background(), sys, []string{"v1"}, Options{Limits: budget.Limits{MaxStates: 3000}})
	if err == nil {
		t.Fatal("expected a budget error")
	}
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	for i, a := range res.Assignments {
		if !Satisfies(sys, a) {
			t.Errorf("assignment %d does not satisfy the system", i)
		}
	}
}

// TestDecideCtxReportsUsage checks the decision entry point surfaces the
// budget counters for both clean and exhausted runs.
func TestDecideCtxReportsUsage(t *testing.T) {
	sys := smallGroupSystem()
	a, ok, usage, err := DecideCtx(context.Background(), sys, []string{"v1", "v2"}, Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !Satisfies(sys, a) {
		t.Error("witness does not satisfy the system")
	}
	if usage.Steps == 0 {
		t.Error("Usage.Steps = 0 after a full solve")
	}

	_, ok, usage, err = DecideCtx(context.Background(), bombSystem(24), []string{"v1"}, Options{Limits: budget.Limits{MaxStates: 2000}})
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if ok {
		t.Error("ok = true on an exhausted empty solve (must be unknown)")
	}
	if !usage.Exhausted {
		t.Error("Usage.Exhausted = false")
	}
}
