package core

import (
	"context"
	"errors"
	"testing"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
)

// TestSolveCtxPrecancelledFastPath pins the entry fast path: an already
// canceled context returns immediately, before any graph construction or
// automaton work is accounted.
func TestSolveCtxPrecancelledFastPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCtx(ctx, bombSystem(24), Options{})
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Kind != budget.Canceled {
		t.Errorf("Kind = %q, want %q", ex.Kind, budget.Canceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if res.Usage.States != 0 || res.Usage.Steps != 0 {
		t.Errorf("work was done on a dead context: states=%d steps=%d",
			res.Usage.States, res.Usage.Steps)
	}
	if len(res.Assignments) != 0 {
		t.Error("assignments fabricated on a dead context")
	}
}

// TestSolveForCtxPrecancelledFastPath is the same contract for the
// partial-solve entry point.
func TestSolveForCtxPrecancelledFastPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveForCtx(ctx, bombSystem(24), []string{"v1"}, Options{})
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if res.Usage.States != 0 || res.Usage.Steps != 0 {
		t.Errorf("work was done on a dead context: states=%d steps=%d",
			res.Usage.States, res.Usage.Steps)
	}
}

// TestDecideCtxPrecancelledFastPath covers the decision entry point, which
// routes through SolveCtx.
func TestDecideCtxPrecancelledFastPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, ok, usage, err := DecideCtx(ctx, bombSystem(24), []string{"v1"}, Options{})
	if err == nil || ok || a != nil {
		t.Fatalf("a=%v ok=%v err=%v, want unknown outcome", a, ok, err)
	}
	if usage.Steps != 0 || usage.States != 0 {
		t.Errorf("work was done on a dead context: %+v", usage)
	}
}

// TestFaultInjectionGCIPop trips the gci worklist pop at every ordinal the
// baseline enumeration passes: each trip must unwind with a structured
// Injected error, and any returned assignments must still satisfy the
// system.
func TestFaultInjectionGCIPop(t *testing.T) {
	if _, err := SolveCtx(context.Background(), smallGroupSystem(), Options{}); err != nil {
		t.Fatalf("baseline solve failed: %v", err)
	}
	tripped := 0
	for n := int64(1); n <= 4; n++ {
		disarm := faultinject.Arm(faultinject.GCIPop, n)
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
			tripped++
			var ex *budget.Exhausted
			if !errors.As(err, &ex) {
				t.Fatalf("n=%d: err = %v, want *budget.Exhausted", n, err)
			}
			if ex.Kind != budget.Injected {
				t.Errorf("n=%d: Kind = %q, want %q", n, ex.Kind, budget.Injected)
			}
			if ex.Stage != "gci.pop" {
				t.Errorf("n=%d: Stage = %q, want gci.pop", n, ex.Stage)
			}
		}
	}
	if tripped == 0 {
		t.Error("no ordinal tripped the gci pop site")
	}
}

// TestFaultInjectionGroupProduct trips the Cartesian-combination stage and
// requires the solver to abandon the product cleanly: an empty (unknown)
// result with the structured Injected error, never a half-merged
// assignment.
func TestFaultInjectionGroupProduct(t *testing.T) {
	disarm := faultinject.Arm(faultinject.GroupProduct, 1)
	sys := smallGroupSystem()
	res, err := SolveCtx(context.Background(), sys, Options{})
	disarm()
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Kind != budget.Injected || ex.Stage != "solve.group-product" {
		t.Errorf("trip = %q at %q", ex.Kind, ex.Stage)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if len(res.Assignments) != 0 {
		t.Errorf("product stage exposed %d assignments after a mid-stage trip", len(res.Assignments))
	}
}

// TestFaultInjectionGroupProductPartial covers the combine loop entered
// through SolveFor, which shares Solve's pipeline and stage names.
func TestFaultInjectionGroupProductPartial(t *testing.T) {
	disarm := faultinject.Arm(faultinject.GroupProduct, 1)
	sys := smallGroupSystem()
	res, err := SolveForCtx(context.Background(), sys, []string{"v1"}, Options{})
	disarm()
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *budget.Exhausted", err)
	}
	if ex.Stage != "solve.group-product" {
		t.Errorf("Stage = %q", ex.Stage)
	}
	if len(res.Assignments) != 0 {
		t.Errorf("partial product exposed %d assignments", len(res.Assignments))
	}
}

// TestFaultInjectionCrashPanics proves the Crash point turns a budget
// checkpoint into a panic (the chaos harness's simulated invariant
// violation) and that nothing below core's public entry catches it — the
// recover boundaries of the dprle API and the serving layer are what must
// contain it.
func TestFaultInjectionCrashPanics(t *testing.T) {
	disarm := faultinject.Arm(faultinject.Crash, 1)
	defer disarm()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("injected crash did not propagate out of SolveCtx")
		}
	}()
	_, _ = SolveCtx(context.Background(), smallGroupSystem(), Options{})
}
