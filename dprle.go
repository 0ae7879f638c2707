package dprle

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"dprle/internal/budget"
	"dprle/internal/core"
	"dprle/internal/solvecache"
)

// Expr is the left-hand side of a subset constraint: a variable, a constant,
// a concatenation, or a union of expressions.
type Expr struct {
	e core.Expr
}

// V references the language variable with the given name.
func V(name string) Expr { return Expr{e: core.Var{Name: name}} }

// Concat concatenates expressions left to right. It panics on an empty
// argument list: there is no neutral expression to return, and a
// zero-argument concat is always a programming error at the call site.
func Concat(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		panic("dprle: Concat of no expressions")
	}
	out := exprs[0].e
	for _, x := range exprs[1:] {
		out = core.Cat{Left: out, Right: x.e}
	}
	return Expr{e: out}
}

// Or forms the union of two expressions (extension, paper §3.1.2).
func Or(a, b Expr) Expr { return Expr{e: core.Or{Left: a.e, Right: b.e}} }

// Options configures solving. The zero value uses the defaults.
type Options struct {
	// MaxSolutions caps the number of disjunctive assignments returned.
	MaxSolutions int
	// MaxStates caps the total number of NFA states the solve may
	// materialize across all product/determinization constructions.
	// 0 means unlimited. When the cap trips, the solve unwinds and
	// returns its verified partial results with an *ExhaustedError.
	MaxStates int64
	// MaxSteps caps the number of solver checkpoints (inner-loop progress
	// marks). 0 means unlimited.
	MaxSteps int64
	// Cache memoizes solved components across calls (see NewCache). nil
	// disables memoization. The same Cache may be shared by concurrent
	// solves and across different systems: entries are keyed by canonical
	// structural fingerprints plus the option fields that shape them, so
	// a hit is always a sound substitute for re-solving.
	Cache *Cache
}

func (o Options) toCore() core.Options {
	co := core.Options{
		MaxSolutions: o.MaxSolutions,
		Limits:       budget.Limits{MaxStates: o.MaxStates, MaxSteps: o.MaxSteps},
	}
	if o.Cache != nil {
		co.Cache = o.Cache.c
	}
	return co
}

// Cache is a bounded, thread-safe memoization store for solved
// constraint-graph components. A system whose components were all seen
// before (under the same relevant options) solves in hash time; results
// produced under a tripped budget are never stored, so cached answers are
// always complete. Create one with NewCache and share it via
// Options.Cache.
type Cache struct {
	c *solvecache.Cache
}

// NewCache returns a Cache holding at most maxEntries values totalling at
// most maxBytes of accounted cost. Zero selects the defaults (4096
// entries, 64 MiB); a negative value leaves that bound unenforced.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{c: solvecache.New(solvecache.Config{MaxEntries: maxEntries, MaxBytes: maxBytes})}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// Stats snapshots the cache counters. A nil Cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.c.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Puts:      s.Puts,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Bytes:     s.Bytes,
	}
}

// Usage reports the resources a solve consumed.
type Usage struct {
	// States is the number of NFA states materialized by budgeted
	// constructions (products, determinizations, quotients).
	States int64
	// Steps is the number of solver checkpoints passed.
	Steps int64
	// Exhausted reports whether a resource budget tripped during the solve.
	Exhausted bool
}

// ExhaustedError reports that a solve ran out of a configured resource
// budget — the context's deadline or cancellation, or an Options limit —
// and degraded gracefully instead of running to completion. The Result
// returned alongside it holds verified partial output (see SolveContext).
//
// It unwraps to the context's error for deadline/cancellation trips, so
// errors.Is(err, context.DeadlineExceeded) and errors.Is(err,
// context.Canceled) work as expected.
type ExhaustedError struct {
	// Kind names the budget that tripped: "deadline", "canceled",
	// "max-states", "max-steps", or "fault-injected".
	Kind string
	// Stage is the pipeline stage that hit the limit, e.g.
	// "nfa.determinize" or "gci.combos".
	Stage string
	// States and Steps are the counters consumed at the moment of the trip.
	States int64
	Steps  int64
	// Limit is the configured bound for counter trips (0 for deadline/
	// cancellation).
	Limit int64

	cause error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("dprle: budget exhausted: %s at %s (states=%d steps=%d limit=%d)",
		e.Kind, e.Stage, e.States, e.Steps, e.Limit)
}

// Unwrap exposes the underlying budget error (which itself unwraps to the
// context error for deadline/cancellation trips).
func (e *ExhaustedError) Unwrap() error { return e.cause }

// PanicError wraps a panic recovered at the API boundary: an internal
// invariant of the solver was violated. The solve that produced it returned
// no usable result; the Stack identifies the defect.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("dprle: internal panic: %v", e.Value)
}

// wrapErr converts internal budget errors into the public ExhaustedError;
// other errors pass through unchanged.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	var ex *budget.Exhausted
	if errors.As(err, &ex) {
		return &ExhaustedError{
			Kind:   string(ex.Kind),
			Stage:  ex.Stage,
			States: ex.States,
			Steps:  ex.Steps,
			Limit:  ex.Limit,
			cause:  ex,
		}
	}
	return err
}

// recoverToError converts a panic escaping the solver into a *PanicError,
// keeping internal invariant violations from crashing the calling process.
func recoverToError(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// System is an RMA problem instance under construction.
type System struct {
	inner *core.System
}

// NewSystem returns an empty constraint system.
func NewSystem() *System { return &System{inner: core.NewSystem()} }

// Named interns a constant language under the given name and returns it as
// an expression usable on left-hand sides.
func (s *System) Named(name string, l Lang) (Expr, error) {
	c, err := s.inner.Const(name, l.machine())
	if err != nil {
		return Expr{}, err
	}
	return Expr{e: c}, nil
}

// MustNamed is Named for statically known constants.
func (s *System) MustNamed(name string, l Lang) Expr {
	e, err := s.Named(name, l)
	if err != nil {
		panic(err)
	}
	return e
}

// Lit interns the singleton language {str} as a constant expression.
func (s *System) Lit(str string) Expr {
	return Expr{e: s.inner.AnonConst(LitLang(str).machine())}
}

// Require adds the constraint e ⊆ rhs, interning rhs under rhsName.
func (s *System) Require(e Expr, rhsName string, rhs Lang) error {
	c, err := s.inner.Const(rhsName, rhs.machine())
	if err != nil {
		return err
	}
	return s.inner.Add(e.e, c)
}

// MustRequire is Require that panics on error.
func (s *System) MustRequire(e Expr, rhsName string, rhs Lang) {
	if err := s.Require(e, rhsName, rhs); err != nil {
		panic(err)
	}
}

// Vars lists the registered variable names in first-use order.
func (s *System) Vars() []string { return s.inner.Vars() }

// String renders the system one constraint per line.
func (s *System) String() string { return s.inner.String() }

// Assignment maps variables to regular languages.
type Assignment struct {
	inner core.Assignment
}

// Get returns the language assigned to the variable (∅ for unknown names).
func (a Assignment) Get(name string) Lang { return wrap(a.inner.Lookup(name)) }

// Witnesses returns a shortest concrete string per variable — the form a
// testcase generator consumes. It fails if any variable is empty.
func (a Assignment) Witnesses() (map[string]string, error) {
	return core.Witnesses(a.inner)
}

// ShortestWitness returns the deterministic shortest member of the
// language assigned to name, with ok=false when that language is empty
// (including unknown names, which Get resolves to ∅). See
// Lang.ShortestWitness for the byte-stability guarantee.
func (a Assignment) ShortestWitness(name string) (string, bool) {
	return a.Get(name).ShortestWitness()
}

// Result holds the disjunctive solutions of a Solve call.
type Result struct {
	// Assignments are the maximal satisfying assignments found.
	Assignments []Assignment
	// Truncated reports that enumeration stopped at a configured bound
	// (MaxSolutions or the seam-combination cap). This is distinct from
	// resource exhaustion, which SolveContext signals with a non-nil
	// *ExhaustedError.
	Truncated bool
	// Usage reports the resources the solve consumed.
	Usage Usage
}

func wrapResult(res *core.Result) *Result {
	out := &Result{}
	if res == nil {
		return out
	}
	out.Truncated = res.Truncated
	out.Usage = Usage{States: res.Usage.States, Steps: res.Usage.Steps, Exhausted: res.Usage.Exhausted}
	for _, a := range res.Assignments {
		out.Assignments = append(out.Assignments, Assignment{inner: a})
	}
	return out
}

// Sat reports whether at least one assignment was found.
func (r *Result) Sat() bool { return len(r.Assignments) > 0 }

// First returns the first assignment; it panics when unsat (check Sat).
func (r *Result) First() Assignment {
	if len(r.Assignments) == 0 {
		panic("dprle: First on an unsatisfiable result")
	}
	return r.Assignments[0]
}

// Solve runs the decision procedure and returns all disjunctive maximal
// satisfying assignments (up to configured bounds). An empty result means no
// assignment gives every variable a nonempty language.
func (s *System) Solve(opts Options) (*Result, error) {
	return s.SolveContext(context.Background(), opts)
}

// SolveContext is Solve under a resource budget: the context's deadline and
// cancellation, plus Options.MaxStates/MaxSteps, bound the work. On
// exhaustion the solver degrades gracefully:
//
//   - The returned error is an *ExhaustedError recording which budget
//     tripped, at which pipeline stage, and the counters consumed.
//   - The Result returned alongside it is non-nil and holds verified
//     partial output: every assignment in it genuinely satisfies the
//     system; only the enumeration is incomplete. An empty Result with a
//     non-nil error means satisfiability is UNKNOWN, not unsat.
//   - With a nil error, an empty Result remains a proof of
//     unsatisfiability, exactly as for Solve.
//
// Internal solver panics are recovered here and reported as *PanicError
// rather than crashing the caller.
func (s *System) SolveContext(ctx context.Context, opts Options) (res *Result, err error) {
	defer recoverToError(&err)
	cres, cerr := core.SolveCtx(ctx, s.inner, opts.toCore())
	return wrapResult(cres), wrapErr(cerr)
}

// SolveFor solves only the parts of the system the given variables depend
// on — the paper's "solving either part or all of the graph depending on
// the needs of the client analysis" (§4). Variables outside the requested
// dependency region are reported as Σ*.
func (s *System) SolveFor(interest []string, opts Options) (*Result, error) {
	return s.SolveForContext(context.Background(), interest, opts)
}

// SolveForContext is SolveFor under a resource budget, with the same
// degradation semantics as SolveContext.
func (s *System) SolveForContext(ctx context.Context, interest []string, opts Options) (res *Result, err error) {
	defer recoverToError(&err)
	cres, cerr := core.SolveForCtx(ctx, s.inner, interest, opts.toCore())
	return wrapResult(cres), wrapErr(cerr)
}

// Decide answers the decision problem for the given variables: it returns an
// assignment covering them with nonempty languages, or ok=false when none
// exists (the paper's "no assignments found").
func (s *System) Decide(interest []string, opts Options) (Assignment, bool, error) {
	a, ok, _, err := s.DecideContext(context.Background(), interest, opts)
	return a, ok, err
}

// DecideContext is Decide under a resource budget. On exhaustion it returns
// any satisfying witness found before the trip: ok=true with a non-nil
// *ExhaustedError still carries a trustworthy assignment, while ok=false
// with a non-nil error means "unknown", not unsat. The returned Usage
// reports the resources consumed either way.
func (s *System) DecideContext(ctx context.Context, interest []string, opts Options) (a Assignment, ok bool, usage Usage, err error) {
	defer recoverToError(&err)
	ca, cok, cu, cerr := core.DecideCtx(ctx, s.inner, interest, opts.toCore())
	usage = Usage{States: cu.States, Steps: cu.Steps, Exhausted: cu.Exhausted}
	err = wrapErr(cerr)
	if !cok {
		return Assignment{}, false, usage, err
	}
	return Assignment{inner: ca}, true, usage, err
}

// Satisfies reports whether the assignment meets every constraint of the
// system — an independent check of the solver's Satisfying condition.
func (s *System) Satisfies(a Assignment) bool {
	return core.Satisfies(s.inner, a.inner)
}

// CheckMaximal verifies the assignment cannot be extended (the Maximal
// condition); the returned error describes a violating variable and witness.
func (s *System) CheckMaximal(a Assignment) error {
	return core.CheckMaximal(s.inner, a.inner)
}

// NewAssignment builds an assignment from explicit variable languages, for
// use with Satisfies/CheckMaximal.
func NewAssignment(vars map[string]Lang) Assignment {
	inner := core.Assignment{}
	for name, l := range vars {
		inner[name] = l.machine()
	}
	return Assignment{inner: inner}
}

// Version identifies the reproduction release.
const Version = "1.0.0"
