// Command dprle is the stand-alone constraint solver: it reads systems of
// subset constraints over regular languages (see internal/textio for the
// format) and prints every disjunctive maximal satisfying assignment — the
// reproduction of the paper's released dprle utility ("implemented … as a
// stand-alone utility in the style of a theorem prover or SAT solver", §4).
//
// Usage:
//
//	dprle [flags] [file.dprle ...]
//
// With no files, one system is read from standard input. Several files are
// solved in order against a shared component cache (see -cache-size), so
// query batches with recurring sub-systems pay for each component once.
// Exit status is 0 when every system has an assignment, 1 when at least
// one had "no assignments found", 2 on parse or usage errors, and 3 when a
// resource budget (-timeout, -max-states, -max-steps) was exhausted before
// some solve completed; errors dominate exhaustion dominates unsat. On
// exit 3 any verified partial assignments are still printed;
// satisfiability of the rest of the space is unknown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dprle/internal/budget"
	"dprle/internal/core"
	"dprle/internal/solvecache"
	"dprle/internal/textio"
)

// Exit codes. A budget trip does not kill the process mid-write: the solver
// unwinds cleanly, partial results are printed, then the code is returned.
const (
	exitSat       = 0
	exitUnsat     = 1
	exitError     = 2
	exitExhausted = 3
)

// severity orders exit codes for multi-file runs: the most severe outcome
// wins, with hard errors above budget exhaustion.
func severity(code int) int {
	switch code {
	case exitError:
		return 3
	case exitExhausted:
		return 2
	case exitUnsat:
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprle", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		maxSol    = fs.Int("max", 0, "cap on disjunctive assignments (0 = default)")
		enum      = fs.Int("enum", 0, "also list up to N language members per variable")
		enumLen   = fs.Int("enumlen", 12, "maximum member length for -enum")
		dotVar    = fs.String("dot", "", "print the first assignment's machine for this variable in Graphviz DOT")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget per solve; on expiry partial results print and exit status is 3 (0 = none)")
		maxStates = fs.Int64("max-states", 0, "cap on NFA states materialized during a solve (0 = unlimited)")
		maxSteps  = fs.Int64("max-steps", 0, "cap on solver checkpoints (0 = unlimited)")
		cacheSize = fs.Int64("cache-size", 0, "byte budget for the component solve cache shared across input files (0 = default 64 MiB, negative = disable)")
		usage     = fs.Bool("usage", false, "report resource usage and cache counters on stderr after the solves")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *timeout < 0 || *maxStates < 0 || *maxSteps < 0 {
		fmt.Fprintln(stderr, "dprle: -timeout, -max-states, and -max-steps must be non-negative")
		return exitError
	}

	type input struct{ name, src string }
	var inputs []input
	if fs.NArg() == 0 {
		src, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "dprle: %v\n", err)
			return exitError
		}
		inputs = append(inputs, input{"<stdin>", string(src)})
	} else {
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "dprle: %v\n", err)
				return exitError
			}
			inputs = append(inputs, input{path, string(src)})
		}
	}

	// One cache outlives all solves of the batch: a component solved for
	// an earlier file answers instantly for every later file that repeats
	// it (and within one file, repeated constants share minimized forms).
	var cache *solvecache.Cache
	if *cacheSize >= 0 {
		cache = solvecache.New(solvecache.Config{MaxBytes: *cacheSize})
	}

	solveOne := func(name, src string) int {
		sys, err := textio.Parse(src)
		if err != nil {
			fmt.Fprintf(stderr, "dprle: %s: %v\n", name, err)
			return exitError
		}

		// The timeout cancels the solve, not the process: the solver
		// unwinds at its next checkpoint and returns whatever it had
		// verified by then.
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		res, solveErr := core.SolveCtx(ctx, sys, core.Options{
			MaxSolutions: *maxSol,
			Cache:        cache,
			Limits:       budget.Limits{MaxStates: *maxStates, MaxSteps: *maxSteps},
		})
		var exhausted *budget.Exhausted
		if solveErr != nil && !errors.As(solveErr, &exhausted) {
			// Structural/internal failure, not a budget trip.
			fmt.Fprintf(stderr, "dprle: %s: %v\n", name, solveErr)
			return exitError
		}
		fmt.Fprint(stdout, textio.FormatResult(sys, res))
		if *enum > 0 && res.Sat() {
			for i, a := range res.Assignments {
				fmt.Fprintf(stdout, "members of assignment %d:\n", i+1)
				for _, v := range sys.Vars() {
					fmt.Fprintf(stdout, "  %s: %q\n", v, a.Lookup(v).Enumerate(*enumLen, *enum))
				}
			}
		}
		if *dotVar != "" && res.Sat() {
			known := false
			for _, v := range sys.Vars() {
				if v == *dotVar {
					known = true
				}
			}
			if !known {
				fmt.Fprintf(stderr, "dprle: unknown variable %q for -dot\n", *dotVar)
				return exitError
			}
			fmt.Fprint(stdout, res.First().Lookup(*dotVar).Dot(*dotVar))
		}
		if *usage {
			fmt.Fprintf(stderr, "dprle: %s: usage: states=%d steps=%d exhausted=%v\n",
				name, res.Usage.States, res.Usage.Steps, res.Usage.Exhausted)
		}
		if exhausted != nil {
			if res.Sat() {
				fmt.Fprintf(stderr, "dprle: %s: %v; the assignments above are verified but enumeration is incomplete\n", name, solveErr)
			} else {
				fmt.Fprintf(stderr, "dprle: %s: %v; satisfiability unknown\n", name, solveErr)
			}
			return exitExhausted
		}
		if !res.Sat() {
			return exitUnsat
		}
		return exitSat
	}

	code := exitSat
	for _, in := range inputs {
		if len(inputs) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", in.name)
		}
		if c := solveOne(in.name, in.src); severity(c) > severity(code) {
			code = c
		}
	}
	if *usage && cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stderr, "dprle: cache: hits=%d misses=%d puts=%d evictions=%d entries=%d bytes=%d\n",
			st.Hits, st.Misses, st.Puts, st.Evictions, st.Entries, st.Bytes)
	}
	return code
}
