// Command benchtab regenerates the paper's evaluation tables and figures:
//
//	benchtab -table fig11        the Figure 11 data-set table
//	benchtab -table fig12        the Figure 12 per-defect results table
//	benchtab -table fig12 -full  … including the warp/secure large-constant
//	                             case (the paper's 577 s row; under a second
//	                             here)
//	benchtab -table fig12 -full -timeout 2s
//	                             … with a per-path solve budget: a row whose
//	                             solve outlives it records the budget trip
//	                             in its "exh" column
//
// Each fig12 row also reports the solver's budget counters (NFA states
// materialized, checkpoints passed, exhausted paths).
//
//	benchtab -table complexity   the §3.5 complexity sweeps
//	benchtab -table ablation     the solver-option ablation on utopia/styles,
//	                             and with -full on warp/secure too
//	benchtab -table cache        the solve-cache cold/warm experiment on the
//	                             fig12 corpus; also writes the report as JSON
//	                             to -cache-json (default BENCH_cache.json)
//	benchtab -table lint         the dprlelint suite over the module plus the
//	                             strlang fixture drill; also writes the report
//	                             as JSON to -lint-json (default BENCH_lint.json)
//	benchtab -table hotpath      the NFA hot-path workloads (product chains,
//	                             induce loop, determinize, minimize, DFA
//	                             membership, corpus solve) with wall time and
//	                             allocation counts; compares against the
//	                             frozen baseline in -hotpath-baseline and
//	                             writes the combined report to -hotpath-json
//	                             (default BENCH_hotpath.json for both)
//	benchtab -table all          everything (without -full, secure is skipped)
//
// Measured values are printed alongside the published ones so the shape of
// the results — who is fast, who is pathological, how machines grow — can be
// compared directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dprle/internal/core"
	"dprle/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.String("table", "all", "fig11, fig12, complexity, ablation, cache, lint, hotpath, or all")
		full      = fs.Bool("full", false, "include the warp/secure large-constant case in fig12 and ablation")
		minimize  = fs.Bool("minimize", false, "solve with intermediate-machine minimization (ablation)")
		timeout   = fs.Duration("timeout", 0, "per-path solve deadline for fig12; exhausted paths are recorded, not fatal (0 = none)")
		maxStates = fs.Int64("max-states", 0, "per-path cap on NFA states materialized (0 = unlimited)")
		maxSteps  = fs.Int64("max-steps", 0, "per-path cap on solver checkpoints (0 = unlimited)")
		cacheJSON = fs.String("cache-json", "BENCH_cache.json", "write the -table cache report to this file as JSON (empty = don't)")
		lintJSON  = fs.String("lint-json", "BENCH_lint.json", "write the -table lint report to this file as JSON (empty = don't)")
		hotJSON   = fs.String("hotpath-json", "BENCH_hotpath.json", "write the -table hotpath report to this file as JSON (empty = don't)")
		hotBase   = fs.String("hotpath-baseline", "BENCH_hotpath.json", "read the frozen hotpath baseline from this file (empty = none)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := core.Options{Minimize: *minimize}

	runFig11 := func() int {
		rows, err := experiments.Figure11()
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, experiments.FormatFigure11(rows))
		return 0
	}
	runFig12 := func() int {
		rows, err := experiments.Figure12Budget(opts, !*full, *timeout, *maxStates, *maxSteps)
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, experiments.FormatFigure12(rows))
		rep := experiments.Shape(rows)
		fmt.Fprintf(stdout, "shape: all exploitable=%v, sub-second defects=%d/16, slowest ordinary=%.3fs",
			rep.AllExploitable, rep.FastCount, rep.SlowestOrdinary.Seconds())
		if rep.PathologicalSkip {
			fmt.Fprintf(stdout, ", secure skipped (use -full)\n")
		} else {
			fmt.Fprintf(stdout, ", secure=%.1fs\n", rep.Pathological.Seconds())
		}
		return 0
	}
	runAblation := func() int {
		defects := []string{"utopia/styles"}
		if *full {
			defects = append(defects, "warp/secure")
		}
		for _, defect := range defects {
			rows, err := experiments.Ablation(defect)
			if err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout, experiments.FormatAblation(defect, rows))
		}
		return 0
	}
	runCache := func() int {
		rep, err := experiments.CacheExperiment(opts, !*full)
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, experiments.FormatCache(rep))
		if *cacheJSON != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			if err := os.WriteFile(*cacheJSON, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "wrote %s\n", *cacheJSON)
		}
		return 0
	}
	runLint := func() int {
		root, err := findModuleRoot()
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		rep, err := experiments.LintExperiment(root)
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, experiments.FormatLint(rep))
		if *lintJSON != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			if err := os.WriteFile(*lintJSON, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "wrote %s\n", *lintJSON)
		}
		return 0
	}
	runHotpath := func() int {
		baseline := loadHotpathBaseline(*hotBase)
		rep, err := experiments.HotpathExperiment(!*full)
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		file := experiments.CompareHotpath(baseline, rep)
		fmt.Fprintln(stdout, experiments.FormatHotpath(file))
		if *hotJSON != "" {
			data, err := json.MarshalIndent(file, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			if err := os.WriteFile(*hotJSON, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "wrote %s\n", *hotJSON)
		}
		return 0
	}
	runComplexity := func() int {
		out, err := experiments.ComplexityTable([]int{4, 8, 16, 32, 64})
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, out)
		return 0
	}

	switch *table {
	case "fig11":
		return runFig11()
	case "fig12":
		return runFig12()
	case "complexity":
		return runComplexity()
	case "ablation":
		return runAblation()
	case "cache":
		return runCache()
	case "lint":
		return runLint()
	case "hotpath":
		return runHotpath()
	case "all":
		if rc := runFig11(); rc != 0 {
			return rc
		}
		if rc := runFig12(); rc != 0 {
			return rc
		}
		if rc := runAblation(); rc != 0 {
			return rc
		}
		if rc := runCache(); rc != 0 {
			return rc
		}
		if rc := runLint(); rc != 0 {
			return rc
		}
		if rc := runHotpath(); rc != 0 {
			return rc
		}
		return runComplexity()
	}
	fmt.Fprintf(stderr, "benchtab: unknown table %q\n", *table)
	return 2
}

// loadHotpathBaseline reads the frozen hot-path baseline from path: either
// a full BENCH_hotpath.json (whose baseline section, or failing that its
// current section, is the baseline) or a bare report. A missing or
// unparseable file just means "no baseline" — the experiment still runs.
func loadHotpathBaseline(path string) *experiments.HotpathReport {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f experiments.HotpathFile
	if err := json.Unmarshal(data, &f); err == nil {
		if f.Baseline != nil && len(f.Baseline.Rows) > 0 {
			return f.Baseline
		}
		if len(f.Current.Rows) > 0 {
			return &f.Current
		}
	}
	var r experiments.HotpathReport
	if err := json.Unmarshal(data, &r); err == nil && len(r.Rows) > 0 {
		return &r
	}
	return nil
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod, the root the lint experiment loads packages from.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
