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

	"dprle/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.String("table", "all", "fig11, fig12, complexity, ablation, hotpath, or all")
		full    = fs.Bool("full", false, "include the warp/secure large-constant case in fig12 and ablation")
		timeout = fs.Duration("timeout", 0, "per-path solve deadline for fig12; exhausted paths are recorded, not fatal (0 = none)")
		hotJSON = fs.String("hotpath-json", "BENCH_hotpath.json", "write the -table hotpath report to this file as JSON (empty = don't)")
		hotBase = fs.String("hotpath-baseline", "BENCH_hotpath.json", "read the frozen hotpath baseline from this file (empty = none)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

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
		rows, err := experiments.Figure12(!*full, *timeout)
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
		if rc := runHotpath(); rc != 0 {
			return rc
		}
		return runComplexity()
	}
	fmt.Fprintf(stderr, "benchtab: unknown table %q\n", *table)
	return 2
}

// loadHotpathBaseline reads the frozen hot-path baseline from the baseline
// section of a BENCH_hotpath.json at path. A missing or unparseable file,
// or one without a baseline, just means "no baseline" — the experiment
// still runs.
func loadHotpathBaseline(path string) *experiments.HotpathReport {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f experiments.HotpathFile
	if err := json.Unmarshal(data, &f); err != nil || f.Baseline == nil || len(f.Baseline.Rows) == 0 {
		return nil
	}
	return f.Baseline
}
