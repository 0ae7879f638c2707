package symexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dprle/internal/budget"
	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/lang"
	"dprle/internal/policy"
	"dprle/internal/server/retry"
)

// Finding is a confirmed vulnerability: a feasible path to a sink together
// with concrete attack inputs (the paper's automatically generated
// testcases, §2/§4).
type Finding struct {
	File string
	Line int
	Kind cfg.SinkKind
	// Inputs maps "SOURCE:key" to a concrete exploit value.
	Inputs map[string]string
	// InputLangs carries the full solution languages for report rendering.
	System *PathSystem
	// Stats describes the solved system.
	Constraints int
}

// String renders the finding as an actionable report line.
func (f *Finding) String() string {
	var parts []string
	for _, name := range sortedKeys(f.Inputs) {
		parts = append(parts, fmt.Sprintf("%s=%q", name, f.Inputs[name]))
	}
	return fmt.Sprintf("%s:%d: %s injection via %s", f.File, f.Line, f.Kind, strings.Join(parts, ", "))
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Config controls program analysis.
type Config struct {
	SQL      policy.Policy
	XSS      policy.Policy
	MaxPaths int
	Solver   core.Options
	// FirstPerSink stops after the first feasible path per sink line,
	// mirroring the paper's "we attempt to find inputs for the first
	// vulnerability in each file".
	FirstPerSink bool
	// PathTimeout bounds the wall-clock spent solving any single path's
	// constraint system. A path whose solve exhausts the budget is counted
	// in AnalysisStats.ExhaustedPaths and skipped (unless the solver found
	// a verified witness before the trip, which is still used); the
	// analysis then continues with the remaining paths instead of hanging
	// on one pathological system. 0 means no per-path deadline.
	PathTimeout time.Duration
	// MaxStates/MaxSteps cap the solver resources per path (see
	// core.Options.Limits). 0 means unlimited.
	MaxStates int64
	MaxSteps  int64
	// ExhaustedRetries re-runs a path whose solve tripped MaxStates or
	// MaxSteps, scaling both caps 4x per attempt (1x, 4x, 16x, ...), up to
	// this many extra attempts. Deadline trips are not retried — a bigger
	// state budget cannot buy back wall-clock time. Usage across attempts
	// is summed. 0 disables retries.
	ExhaustedRetries int
}

// DefaultConfig returns the configuration the experiments use: the paper's
// quote policy for SQL and script-tag policy for XSS.
func DefaultConfig() Config {
	return Config{SQL: policy.SQLDefault(), XSS: policy.XSSDefault(), FirstPerSink: true}
}

// AnalysisStats aggregates metrics across all analyzed paths of a program,
// matching Figure 12's reporting: |FG| basic blocks and |C| constraints,
// plus the resource counters of the budgeted solves.
type AnalysisStats struct {
	Blocks      int // |FG|
	Paths       int
	Constraints int // |C|: constraints generated along the solved paths
	// SolveStates/SolveSteps total the solver's resource counters across
	// all per-path solves.
	SolveStates int64
	SolveSteps  int64
	// ExhaustedPaths counts paths whose solve tripped a resource budget
	// (the analysis degraded by skipping or truncating them).
	ExhaustedPaths int
}

// AnalyzeProgram symbolically executes every path to a sink, solves the
// resulting constraint systems, and returns the confirmed findings with
// generated attack inputs.
func AnalyzeProgram(prog *lang.Program, cfgc Config) ([]Finding, AnalysisStats, error) {
	var stats AnalysisStats
	stats.Blocks = cfg.Build(prog).NumBlocks()
	paths := cfg.PathsToSinks(prog, cfgc.MaxPaths)
	stats.Paths = len(paths)

	var findings []Finding
	done := map[int]bool{} // sink line → finding emitted
	for _, p := range paths {
		if cfgc.FirstPerSink && done[p.Line] {
			continue
		}
		pol := cfgc.SQL
		if p.Kind == cfg.SinkXSS {
			pol = cfgc.XSS
		}
		ps, err := ForPath(p, pol)
		if err != nil {
			return nil, stats, err
		}
		stats.Constraints += ps.NumConstraints
		if len(ps.Inputs) == 0 {
			continue // no attacker-controlled data reaches the sink
		}
		assignment, ok, usage, err := decidePath(ps, cfgc)
		stats.SolveStates += usage.States
		stats.SolveSteps += usage.Steps
		if err != nil {
			var ex *budget.Exhausted
			if errors.As(err, &ex) {
				// This path's solve ran out of budget. A witness found
				// before the trip is verified and still usable; otherwise
				// the path is skipped and the analysis moves on.
				stats.ExhaustedPaths++
				if !ok {
					continue
				}
			} else {
				return nil, stats, err
			}
		} else if usage.Exhausted {
			// The trip fell in a stage that degrades without an error
			// (maximalization, minimization, dedup): the verdict stands,
			// but the path was still cut short.
			stats.ExhaustedPaths++
		}
		if !ok {
			continue // path infeasible or not exploitable
		}
		inputs := map[string]string{}
		for _, v := range ps.Inputs {
			w, wok := assignment.Lookup(v).ShortestWitness()
			if !wok {
				return nil, stats, fmt.Errorf("symexec: decided variable %s is empty", v)
			}
			inputs[v] = w
		}
		findings = append(findings, Finding{
			File: prog.File, Line: p.Line, Kind: p.Kind,
			Inputs: inputs, System: ps, Constraints: ps.NumConstraints,
		})
		done[p.Line] = true
	}
	return findings, stats, nil
}

// decidePath runs the budgeted decision procedure for one path's constraint
// system, giving each path its own deadline so one pathological system
// cannot consume the whole analysis. When ExhaustedRetries is set, a solve
// that tripped a state or step cap is re-run through retry.Policy with the
// caps escalated 4x per attempt; a deadline or cancellation stops
// immediately, and each attempt gets a fresh PathTimeout.
func decidePath(ps *PathSystem, cfgc Config) (core.Assignment, bool, budget.Usage, error) {
	var (
		assignment core.Assignment
		ok         bool
		total      budget.Usage
		solveErr   error
	)
	policy := retry.Policy{MaxAttempts: 1 + cfgc.ExhaustedRetries}
	_ = policy.Do(context.Background(), func(ctx context.Context, attempt int) error {
		actx := ctx
		if cfgc.PathTimeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, cfgc.PathTimeout)
			defer cancel()
		}
		scale := int64(1) << (2 * uint(attempt-1)) // 1x, 4x, 16x, ...
		opts := cfgc.Solver
		opts.Limits = budget.Limits{
			MaxStates: scaleLimit(cfgc.MaxStates, scale),
			MaxSteps:  scaleLimit(cfgc.MaxSteps, scale),
		}
		var usage budget.Usage
		assignment, ok, usage, solveErr = core.DecideCtx(actx, ps.Sys, ps.Inputs, opts)
		total.States += usage.States
		total.Steps += usage.Steps
		total.Exhausted = usage.Exhausted
		if solveErr == nil {
			return nil
		}
		var ex *budget.Exhausted
		if errors.As(solveErr, &ex) && (ex.Kind == budget.States || ex.Kind == budget.Steps) {
			return solveErr // a bigger cap may let this path finish
		}
		return retry.Permanent(solveErr)
	})
	// Callers errors.As the raw solver error, so return it unwrapped.
	return assignment, ok, total, solveErr
}

// scaleLimit multiplies a cap by the escalation factor, leaving 0
// (unlimited) alone.
func scaleLimit(limit, scale int64) int64 {
	if limit <= 0 {
		return limit
	}
	return limit * scale
}

// AnalyzeSource parses and analyzes a PHP-subset source file.
func AnalyzeSource(file, src string, cfgc Config) ([]Finding, AnalysisStats, error) {
	prog, err := lang.Parse(file, src)
	if err != nil {
		return nil, AnalysisStats{}, err
	}
	return AnalyzeProgram(prog, cfgc)
}
