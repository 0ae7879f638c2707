package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
	"dprle/internal/nfa"
	"dprle/internal/solvecache"
)

// Options configures the solver.
type Options struct {
	// MaxSolutions caps the number of disjunctive assignments returned.
	// 0 means DefaultMaxSolutions.
	MaxSolutions int
	// MaxCombos caps the number of seam-choice combinations explored per
	// CI-group. 0 means DefaultMaxCombos.
	MaxCombos int
	// Minimize applies DFA minimization to intermediate machines, the
	// improvement the paper suggests for the pathological `secure` case
	// (§4). Off by default to match the published prototype.
	Minimize bool
	// RawConstants disables the up-front canonicalization (DFA
	// minimization) of constant languages. The paper's prototype tracked
	// large string constants through every machine transformation verbatim,
	// which is what made its `secure` benchmark take minutes (§4); enabling
	// RawConstants reproduces that behaviour. With canonicalization the
	// solution machinery sees each constant as its minimal DFA, which also
	// makes the number of seam edges — and hence the disjunct granularity —
	// match the paper's hand-drawn minimal machines.
	RawConstants bool
	// NoMaximalize skips the final quotient-based maximalization fixpoint.
	// The returned assignments still satisfy the system and jointly cover
	// all solutions, but individual disjuncts may be extendable (their
	// granularity then mirrors the seam structure of the constant machines,
	// like the raw concat_intersect output). Intended for ablation
	// benchmarks.
	NoMaximalize bool
	// Cache memoizes per-component solutions (CI-groups, free-variable
	// reductions, canonicalized constants) across solves, keyed by canonical
	// structural fingerprints (see internal/solvecache and cache.go). A nil
	// cache disables memoization. The cache is safe for concurrent use and
	// may be shared across solves with different Options: the relevant
	// option fields are part of every key. Results from solves that tripped
	// their budget are never stored.
	Cache *solvecache.Cache
	// Limits bounds the resources the solve may consume (NFA states
	// materialized, solver checkpoints). Zero fields mean unlimited. Wall
	//-clock deadlines and cancellation come from the context passed to
	// SolveCtx. When a limit trips, the solver unwinds and returns the
	// verified partial results found so far alongside a *budget.Exhausted
	// error.
	Limits budget.Limits
}

// Defaults for Options fields left zero.
const (
	DefaultMaxSolutions = 256
	DefaultMaxCombos    = 4096
)

func (o Options) maxSolutions() int {
	if o.MaxSolutions <= 0 {
		return DefaultMaxSolutions
	}
	return o.MaxSolutions
}

func (o Options) maxCombos() int {
	if o.MaxCombos <= 0 {
		return DefaultMaxCombos
	}
	return o.MaxCombos
}

// Result is the solver's output: zero or more disjunctive maximal satisfying
// assignments. An empty Assignments slice means the system has no assignment
// giving every variable a nonempty language — the paper's "no assignments
// found" outcome (Fig. 7, line 23).
type Result struct {
	Assignments []Assignment
	// Truncated reports that enumeration hit MaxSolutions/MaxCombos, so
	// further disjunctive assignments may exist. This is a configured
	// enumeration cap, distinct from resource exhaustion (which SolveCtx
	// signals through a *budget.Exhausted error).
	Truncated bool
	// Usage reports the resources the solve consumed.
	Usage budget.Usage
}

// Sat reports whether at least one assignment was found.
func (r *Result) Sat() bool { return len(r.Assignments) > 0 }

// First returns the first assignment, or nil when unsat. The paper notes the
// first solution can be produced without enumerating the rest; callers that
// only need a witness use this.
func (r *Result) First() Assignment {
	if len(r.Assignments) == 0 {
		return nil
	}
	return r.Assignments[0]
}

// SatFor reports whether some assignment gives every variable in `interest`
// a nonempty language (Fig. 7's S parameter: success requires ∄s ∈ S with
// F[s] = ∅).
func (r *Result) SatFor(interest []string) bool {
	for _, a := range r.Assignments {
		ok := true
		for _, v := range interest {
			if a.Lookup(v).IsEmpty() {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Solve decides the system and returns all disjunctive maximal satisfying
// assignments, up to the configured bounds. The procedure follows Fig. 7:
//
//  1. Variables outside every CI-group are reduced directly: their language
//     is the intersection of their constraining constants (sort_acyclic_nodes
//     + reduce; this stage never creates disjunction).
//  2. Each CI-group is eliminated by the generalized concat-intersect (gci),
//     producing a set of disjunctive partial solutions that are pushed onto
//     the worklist.
//  3. Branches are combined across groups (the Cartesian product the
//     worklist realizes by re-queuing graphs per disjunct).
//
// Because the constraint grammar (Fig. 2) only permits constants on
// right-hand sides, group eliminations never unlock further reductions, so
// one pass over the groups is complete.
func Solve(s *System, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), s, opts)
}

// SolveCtx is Solve under a resource budget: the context's deadline and
// cancellation, plus opts.Limits, bound the solve. On exhaustion the solver
// degrades gracefully rather than running to completion:
//
//   - The returned error wraps a *budget.Exhausted recording which limit
//     tripped, at which pipeline stage, and the counters consumed. For
//     deadline/cancellation trips it also unwraps to the context's error,
//     so errors.Is(err, context.DeadlineExceeded) works.
//   - The Result returned alongside the error holds the verified partial
//     output: every assignment in it genuinely satisfies the system (each
//     disjunct is checked before the budget could trip past it); only the
//     enumeration is incomplete. An empty Result with a non-nil error means
//     satisfiability is unknown, NOT unsat.
//   - A nil error with an empty Result remains a proof of unsatisfiability,
//     exactly as for Solve.
//
// Language-preserving optimizations (constant canonicalization,
// minimization, maximalization, dedup, subsumption pruning) degrade
// silently when the budget trips inside them; only solve-critical
// constructions surface the error.
func SolveCtx(ctx context.Context, s *System, opts Options) (*Result, error) {
	return solveCtx(ctx, s, nil, opts)
}

// SolveFor solves the system for the given variables only: the partial
// solving the paper offers "depending on the needs of the client analysis"
// (§4), with `interest` as Fig. 7's S. It runs Solve's procedure, but
// reduces only the free variables in `interest` and eliminates only the
// CI-groups containing one; a group cannot be split, so its other
// variables come along. Every other variable, and every requested name the
// system does not mention, is reported as Σ*, its correct value in any
// maximal assignment that ignores its constraints. A nil or empty
// `interest` solves nothing.
func SolveFor(s *System, interest []string, opts Options) (*Result, error) {
	return SolveForCtx(context.Background(), s, interest, opts)
}

// SolveForCtx is SolveFor under a resource budget, with the degradation
// semantics of SolveCtx.
func SolveForCtx(ctx context.Context, s *System, interest []string, opts Options) (*Result, error) {
	want := make(varSet, len(interest)) // never nil: nil admits everything
	for _, v := range interest {
		want[v] = true
	}
	return solveCtx(ctx, s, want, opts)
}

// varSet filters what a solve works on. The nil set admits every free
// variable and every CI-group, including the variable-free group a
// constants-only concatenation forms; any other set admits its free
// variables and the groups containing one of them.
type varSet map[string]bool

func (w varSet) admitsVar(name string) bool { return w == nil || w[name] }

func (w varSet) admitsGroup(g *Graph, group []int) bool {
	if w == nil {
		return true
	}
	for _, id := range group {
		if n := g.Nodes[id]; n.Kind == VarNode && w[n.Name] {
			return true
		}
	}
	return false
}

func solveCtx(ctx context.Context, s *System, want varSet, opts Options) (*Result, error) {
	bud := budget.New(ctx, opts.Limits)
	// Fast path: a context that is already expired or canceled must not
	// start any work — callers that share a deadline across many solves
	// (the serving layer, symexec's per-path loop) rely on dead requests
	// costing nothing.
	if err := bud.Preflight("solve.preflight"); err != nil {
		return &Result{Usage: bud.Usage()}, err
	}
	res, err := solveBudget(s, want, opts, bud)
	if res == nil {
		res = &Result{}
	}
	res.Usage = bud.Usage()
	return res, err
}

func solveBudget(s *System, want varSet, opts Options, bud *budget.Budget) (*Result, error) {
	g := BuildGraph(s)
	canon := newConstCache(opts, bud)

	// Stage 1: free variables (no concat edges) reduce by intersection,
	// consulting the cache first: the reduced language is a function of the
	// constraining constant languages alone. Variables outside the interest
	// set are skipped before their checkpoint.
	base := Assignment{}
	covered := map[string]bool{}
	for _, id := range g.FreeVars() {
		n := g.Nodes[id]
		if !want.admitsVar(n.Name) {
			continue
		}
		if err := bud.Check("solve.free-vars"); err != nil {
			return nil, err
		}
		covered[n.Name] = true
		var fvKey string
		if opts.Cache != nil {
			fvKey = freeVarKey(g, id, opts)
			if cached, ok := lookupFreeVar(opts.Cache, fvKey); ok {
				base[n.Name] = cached
				continue
			}
		}
		lang := nfa.AnyString()
		for _, c := range g.SubsetsInto(id) {
			li, err := nfa.IntersectB(bud, lang, canon.get(c))
			if err != nil {
				return nil, err
			}
			lang = li.Trim()
		}
		if opts.Minimize {
			if ml, err := nfa.MinimizedB(bud, lang); err == nil {
				lang = ml
			}
		}
		if opts.Cache != nil {
			if err := storeFreeVar(opts.Cache, fvKey, lang, bud); err != nil {
				return nil, err
			}
		}
		base[n.Name] = lang
	}
	// Only the CI-groups the interest set admits are eliminated; their
	// disjuncts cover every variable they contain.
	var groups [][]int
	for _, group := range g.CIGroups() {
		if !want.admitsGroup(g, group) {
			continue
		}
		groups = append(groups, group)
		for _, id := range group {
			if n := g.Nodes[id]; n.Kind == VarNode {
				covered[n.Name] = true
			}
		}
	}
	// Variables the solve leaves alone keep the paper's initial Σ*
	// assignment: those registered but never constrained, those outside the
	// interest set, and requested names the system does not mention.
	for _, v := range s.Vars() {
		if !covered[v] {
			base[v] = nfa.AnyString()
		}
	}
	for v := range want {
		if !covered[v] {
			base[v] = nfa.AnyString()
		}
	}

	// Stage 2: eliminate each CI-group with gci, one after another on the
	// solve's one constant cache. A group whose canonical key was solved
	// before — in any earlier system, under any variable names — is
	// answered in hash time with its stored post-maximalized disjuncts.
	perGroup := make([][]map[int]*nfa.NFA, len(groups))
	groupTrunc := make([]bool, len(groups))
	groupErrs := make([]error, len(groups))
	groupKeys := make([]string, len(groups))
	cachedGroup := make([]bool, len(groups))
	for i, group := range groups {
		if opts.Cache != nil {
			groupKeys[i] = componentKey(g, group, opts)
			if sols, trunc, hit := lookupGroup(opts.Cache, groupKeys[i], group); hit {
				perGroup[i], groupTrunc[i], cachedGroup[i] = sols, trunc, true
				continue
			}
		}
		solver := &gciSolver{g: g, opts: opts, canon: canon, bud: bud, varLang: map[int]*nfa.NFA{}, built: map[int]*nfa.NFA{}}
		perGroup[i], groupTrunc[i], groupErrs[i] = solver.solveGroupTrunc(group)
		// Structural and internal errors (anything that is not a budget
		// trip) abort the solve outright.
		var ex *budget.Exhausted
		if err := groupErrs[i]; err != nil && !errors.As(err, &ex) {
			return nil, err
		}
	}

	// Genuine unsat wins over exhaustion elsewhere: a group that completed
	// with zero disjuncts proves the whole system has no all-nonempty
	// assignment, regardless of what the budget did to other groups. The
	// unsat proof itself is cached (an empty disjunct set needs no
	// maximalization); a tripped fill degrades the answer to unknown
	// rather than asserting unsat past an injected fault.
	for i := range groups {
		if groupErrs[i] == nil && len(perGroup[i]) == 0 {
			if !cachedGroup[i] {
				if err := storeGroup(opts.Cache, groupKeys[i], groups[i], nil, groupTrunc[i], bud); err != nil {
					return &Result{}, err
				}
			}
			return &Result{}, nil
		}
	}
	// Remaining errors are budget trips. Groups that produced disjuncts
	// before tripping contribute them as verified partials; a group
	// exhausted before its first disjunct leaves satisfiability unknown, so
	// no assignments can be claimed at all.
	res := &Result{}
	var exhaustedErr error
	for i := range groups {
		if err := groupErrs[i]; err != nil {
			if exhaustedErr == nil {
				exhaustedErr = err
			}
			if len(perGroup[i]) == 0 {
				return &Result{}, err
			}
		}
		if groupTrunc[i] {
			res.Truncated = true
		}
	}

	// Stage 2½: drive each group's disjuncts to a maximal fixpoint and
	// collapse duplicates — per group, before the Cartesian product. Groups
	// share no variables or constraints, so per-group maximalization equals
	// whole-assignment maximalization at a fraction of the cost, and the
	// product of per-group-maximal, pairwise-incomparable partials is
	// itself maximal and duplicate-free. Under an exhausted budget this
	// whole stage degrades to the identity (see maximalizeVars).
	if !opts.NoMaximalize {
		var maxer *maximizer // built on first fresh group: an all-hits solve never pays for it
		for gi, sols := range perGroup {
			if cachedGroup[gi] {
				continue // cached disjuncts are already maximal
			}
			if maxer == nil {
				maxer = newMaximizer(s, canon, bud)
			}
			perGroup[gi] = maximalizeGroup(maxer, g, groups[gi], sols)
		}
	}

	// Fill pass: freshly solved, fully maximalized groups enter the cache.
	// storeGroup declines while the budget has tripped (the solve above may
	// have degraded), so exhausted solves leave the cache untouched; a
	// fault injected inside the fill skips the store and degrades this
	// solve's answer without poisoning the cache for later ones.
	if opts.Cache != nil {
		for gi := range groups {
			if cachedGroup[gi] || groupErrs[gi] != nil {
				continue
			}
			if err := storeGroup(opts.Cache, groupKeys[gi], groups[gi], perGroup[gi], groupTrunc[gi], bud); err != nil {
				if exhaustedErr == nil {
					exhaustedErr = err
				}
			}
		}
	}

	// Stage 3: Cartesian-combine group disjuncts (the worklist's re-queued
	// branches) on top of the base assignment. This stage is deliberately
	// unbudgeted: it is bounded by maxSolutions() map merges, and aborting
	// mid-merge could expose assignments missing some group's variables.
	// The fault probe sits between whole groups, where abandoning the
	// product is safe (no partially merged assignment can escape).
	assignments := []Assignment{base}
	for _, sols := range perGroup {
		if faultinject.Fire(faultinject.GroupProduct) {
			return &Result{}, bud.Inject("solve.group-product")
		}
		var next []Assignment
		for _, a := range assignments {
			for _, sol := range sols {
				merged := Assignment{}
				for k, v := range a {
					merged[k] = v
				}
				for id, lang := range sol {
					merged[g.Nodes[id].Name] = lang
				}
				next = append(next, merged)
				if len(next) >= opts.maxSolutions() {
					res.Truncated = true
					break
				}
			}
			if len(next) >= opts.maxSolutions() {
				break
			}
		}
		assignments = next
	}

	// A free variable reduced to ∅ means no assignment gives every variable
	// a nonempty language; per Fig. 7 this is "no assignments found". (The
	// group stage already guarantees nonemptiness for group variables.)
	for _, a := range assignments {
		for _, lang := range a {
			if lang.IsEmpty() {
				if exhaustedErr != nil {
					return &Result{}, exhaustedErr
				}
				return &Result{}, nil
			}
		}
	}

	res.Assignments = assignments
	return res, exhaustedErr
}

// maximalizeGroup drives one group's disjuncts to maximal fixpoints,
// deduplicates language-equal results, and drops pointwise-subsumed (hence
// extendable) disjuncts. Dedup and pruning degrade under budget exhaustion
// (possibly keeping redundant disjuncts), never dropping a verified one.
func maximalizeGroup(maxer *maximizer, g *Graph, group []int, sols []map[int]*nfa.NFA) []map[int]*nfa.NFA {
	varNames := make([]string, 0, 4)
	for _, id := range group {
		if g.Nodes[id].Kind == VarNode {
			varNames = append(varNames, g.Nodes[id].Name)
		}
	}
	seen := map[string]bool{}
	var out []map[int]*nfa.NFA
	for si, sol := range sols {
		partial := Assignment{}
		for id, lang := range sol {
			partial[g.Nodes[id].Name] = lang
		}
		ma := maxer.maximalizeVars(partial, varNames)
		key, err := ma.FingerprintB(maxer.bud, varNames)
		if err != nil {
			key = fmt.Sprintf("!sol%d", si) // keep it: dedup degrades, solutions don't
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		back := map[int]*nfa.NFA{}
		for id := range sol {
			back[id] = ma.Lookup(g.Nodes[id].Name)
		}
		out = append(out, back)
	}
	return pruneSubsumedB(maxer.bud, out)
}

// Decide answers the RMA decision problem for the variables of interest:
// it returns a satisfying assignment covering them with nonempty languages,
// or nil (with ok=false) when none exists.
func Decide(s *System, interest []string, opts Options) (Assignment, bool, error) {
	a, ok, _, err := DecideCtx(context.Background(), s, interest, opts)
	return a, ok, err
}

// DecideCtx is Decide under a resource budget (see SolveCtx). On exhaustion
// it returns any satisfying witness found before the trip: a non-nil
// assignment is trustworthy even when err is non-nil, while ok=false with a
// non-nil err means "unknown", not "unsat". The returned Usage reports the
// resources consumed either way.
func DecideCtx(ctx context.Context, s *System, interest []string, opts Options) (Assignment, bool, budget.Usage, error) {
	res, err := SolveCtx(ctx, s, opts)
	if res == nil {
		res = &Result{}
	}
	for _, a := range res.Assignments {
		good := true
		for _, v := range interest {
			if a.Lookup(v).IsEmpty() {
				good = false
				break
			}
		}
		if good {
			return a, true, res.Usage, err
		}
	}
	return nil, false, res.Usage, err
}

// Witnesses extracts a shortest concrete string per variable from an
// assignment, the form needed to emit test inputs (paper §2). Variables
// are visited in sorted order so that, when several languages are empty,
// the reported variable does not depend on map iteration order.
func Witnesses(a Assignment) (map[string]string, error) {
	names := make([]string, 0, len(a))
	for v := range a {
		names = append(names, v)
	}
	sort.Strings(names)
	out := map[string]string{}
	for _, v := range names {
		w, ok := a[v].ShortestWitness()
		if !ok {
			return nil, fmt.Errorf("core: variable %s has an empty language", v)
		}
		out[v] = w
	}
	return out, nil
}
