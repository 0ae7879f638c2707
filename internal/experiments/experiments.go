// Package experiments regenerates the paper's evaluation artifacts: the
// Figure 11 data-set table, the Figure 12 per-defect results table, and the
// §3.5 complexity sweeps. cmd/benchtab renders the tables; bench_test.go
// exposes the same drivers as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dprle/internal/core"
	"dprle/internal/corpus"
	"dprle/internal/lang"
	"dprle/internal/symexec"
)

// Fig11Row is one measured row of the data-set table.
type Fig11Row struct {
	App      corpus.App
	GenFiles int
	GenLOC   int
	GenVuln  int
}

// Figure11 generates the three application trees and measures their actual
// file, LOC, and vulnerable-file counts next to the published values.
func Figure11() ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, app := range corpus.Apps() {
		files, err := corpus.GenerateApp(app)
		if err != nil {
			return nil, err
		}
		row := Fig11Row{App: app, GenFiles: len(files)}
		for _, f := range files {
			row.GenLOC += corpus.LOC(f.Source)
			if f.Vuln {
				row.GenVuln++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure11 renders the Figure 11 table with published and measured
// columns side by side.
func FormatFigure11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Figure 11 — data set (published vs. generated)\n")
	fmt.Fprintf(&b, "%-8s %-8s %14s %16s %18s\n", "Name", "Version", "Files (pub/gen)", "LOC (pub/gen)", "Vulnerable (pub/gen)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %7d/%-7d %8d/%-8d %9d/%-9d\n",
			r.App.Name, r.App.Version,
			r.App.Files, r.GenFiles,
			r.App.LOC, r.GenLOC,
			r.App.Vulnerable, r.GenVuln)
	}
	return b.String()
}

// Fig12Row is one measured row of the results table.
type Fig12Row struct {
	Defect   corpus.Defect
	FG       int           // measured |FG|
	C        int           // measured |C|
	TS       time.Duration // measured constraint-solving time
	Exploit  string        // generated attack input
	Findings int
	// Budget counters from the budgeted solves: NFA states materialized,
	// checkpoints passed, and whether any path's solve was cut short by a
	// resource budget.
	SolveStates    int64
	SolveSteps     int64
	ExhaustedPaths int
}

// RunDefect analyzes one defect end to end and reports the measured Figure
// 12 metrics. The solve time covers constraint solving (system construction
// plus Solve), matching the paper's TS ("total time spent solving
// constraints").
func RunDefect(d corpus.Defect, opts core.Options) (Fig12Row, error) {
	return RunDefectBudget(d, opts, 0, 0, 0)
}

// RunDefectBudget is RunDefect with per-path solver budgets: a wall-clock
// deadline per path plus state/step caps (0 = unlimited). Budget-exhausted
// paths are recorded in the row's ExhaustedPaths instead of failing the
// run, which makes the pathological warp/secure row measurable under a
// small deadline.
func RunDefectBudget(d corpus.Defect, opts core.Options, pathTimeout time.Duration, maxStates, maxSteps int64) (Fig12Row, error) {
	src, err := corpus.Source(d)
	if err != nil {
		return Fig12Row{}, err
	}
	prog, err := lang.Parse(d.Name+".php", src)
	if err != nil {
		return Fig12Row{}, err
	}
	cfgc := symexec.DefaultConfig()
	cfgc.Solver = opts
	cfgc.PathTimeout = pathTimeout
	cfgc.MaxStates = maxStates
	cfgc.MaxSteps = maxSteps
	start := time.Now()
	findings, stats, err := symexec.AnalyzeProgram(prog, cfgc)
	elapsed := time.Since(start)
	if err != nil {
		return Fig12Row{}, err
	}
	row := Fig12Row{
		Defect: d, FG: stats.Blocks, C: stats.Constraints, TS: elapsed, Findings: len(findings),
		SolveStates: stats.SolveStates, SolveSteps: stats.SolveSteps, ExhaustedPaths: stats.ExhaustedPaths,
	}
	if len(findings) > 0 {
		row.Exploit = findings[0].Inputs["POST:"+d.Name+"_id"]
	}
	return row, nil
}

// Figure12 runs every defect. When skipBig is set the warp/secure
// large-constant case (the paper's 577 s row) is skipped; pass false to
// measure it too.
func Figure12(opts core.Options, skipBig bool) ([]Fig12Row, error) {
	return Figure12Budget(opts, skipBig, 0, 0, 0)
}

// Figure12Budget is Figure12 under per-path solver budgets (see
// RunDefectBudget). With a deadline set, a row whose solve outlives it
// records the exhaustion instead of waiting the solve out.
func Figure12Budget(opts core.Options, skipBig bool, pathTimeout time.Duration, maxStates, maxSteps int64) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, d := range corpus.Defects() {
		if skipBig && d.Big {
			rows = append(rows, Fig12Row{Defect: d, FG: -1})
			continue
		}
		row, err := RunDefectBudget(d, opts, pathTimeout, maxStates, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", d.App, d.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure12 renders the results table with published and measured
// values side by side, plus the budget counters of each row's solves.
func FormatFigure12(rows []Fig12Row) string {
	var b strings.Builder
	b.WriteString("Figure 12 — per-defect results (published vs. measured)\n")
	fmt.Fprintf(&b, "%-10s %-10s %13s %11s %12s %12s %10s %10s %6s  %s\n",
		"App", "Defect", "|FG| pub/meas", "|C| pub/meas", "TS pub (s)", "TS meas (s)", "states", "steps", "exh", "exploit")
	for _, r := range rows {
		if r.FG < 0 {
			fmt.Fprintf(&b, "%-10s %-10s %13s %11s %12.3f %12s %10s %10s %6s  %s\n",
				r.Defect.App, r.Defect.Name, "-", "-", r.Defect.PaperTS, "(skipped)", "-", "-", "-", "")
			continue
		}
		exh := "-"
		if r.ExhaustedPaths > 0 {
			exh = fmt.Sprintf("%d", r.ExhaustedPaths)
		}
		fmt.Fprintf(&b, "%-10s %-10s %6d/%-6d %5d/%-5d %12.3f %12.3f %10d %10d %6s  %q\n",
			r.Defect.App, r.Defect.Name,
			r.Defect.WantFG, r.FG,
			r.Defect.WantC, r.C,
			r.Defect.PaperTS, r.TS.Seconds(), r.SolveStates, r.SolveSteps, exh, r.Exploit)
	}
	return b.String()
}

// AblationRow is one solver-option variant measured on a reference defect.
type AblationRow struct {
	Name string
	Opts core.Options
	TS   time.Duration
}

// AblationVariants are the solver configurations the ablation study
// compares (see DESIGN.md and BenchmarkAblation).
func AblationVariants() []AblationRow {
	return []AblationRow{
		{Name: "baseline", Opts: core.Options{}},
		{Name: "no-maximalize", Opts: core.Options{NoMaximalize: true}},
		{Name: "raw-constants", Opts: core.Options{RawConstants: true}},
		{Name: "minimize-intermediates", Opts: core.Options{Minimize: true}},
		{Name: "sequential-groups", Opts: core.Options{Sequential: true}},
	}
}

// Ablation measures every variant on the given defect.
func Ablation(defect string) ([]AblationRow, error) {
	d, ok := corpus.DefectByName(defect)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown defect %q", defect)
	}
	rows := AblationVariants()
	for i := range rows {
		res, err := RunDefect(d, rows[i].Opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rows[i].Name, err)
		}
		rows[i].TS = res.TS
	}
	return rows, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(defect string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Solver-option ablation on %s\n", defect)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %8.3fs\n", r.Name, r.TS.Seconds())
	}
	return b.String()
}

// ShapeReport checks the paper's headline claims against measured rows:
// every defect yields an exploit, all non-pathological defects solve fast,
// and the pathological case is at least an order of magnitude slower than
// the slowest ordinary one.
type ShapeReport struct {
	AllExploitable   bool
	FastCount        int           // defects under FastThreshold
	SlowestOrdinary  time.Duration // slowest non-Big defect
	Pathological     time.Duration // warp/secure, 0 when skipped
	PathologicalSkip bool
}

// FastThreshold is the paper's "less than one second" line.
const FastThreshold = time.Second

// Shape summarizes the measured rows against the paper's claims.
func Shape(rows []Fig12Row) ShapeReport {
	rep := ShapeReport{AllExploitable: true}
	for _, r := range rows {
		if r.FG < 0 {
			rep.PathologicalSkip = true
			continue
		}
		if r.Findings == 0 {
			rep.AllExploitable = false
		}
		if r.Defect.Big {
			rep.Pathological = r.TS
			continue
		}
		if r.TS < FastThreshold {
			rep.FastCount++
		}
		if r.TS > rep.SlowestOrdinary {
			rep.SlowestOrdinary = r.TS
		}
	}
	return rep
}
