// Command dprlelint runs the project's static-analysis suite (see
// internal/analyzers) over the module's packages, in the style of a
// go/analysis multichecker:
//
//	go run ./cmd/dprlelint ./...          # whole module
//	go run ./cmd/dprlelint ./internal/nfa # one package
//	dprlelint -only budgetflow ./...      # a subset of analyzers
//	dprlelint -json ./...                 # machine-readable findings
//	dprlelint -fix ./...                  # apply suggested fixes in place
//	dprlelint -list                       # the suite, one line each
//	dprlelint -help nilness               # full docs for one analyzer
//	dprlelint -stats ./...                # per-analyzer counts and wall time
//	dprlelint -interproc=false ./...      # intraprocedural analyses only
//
// Findings are reported in a single global order — file, line, column,
// analyzer — across all packages and analyzers, so -json and CI output
// are byte-stable.
//
// Exit status: 0 no findings, 1 findings reported, 2 usage or load error.
// Findings are suppressed by //lint:ignore dprlelint/<analyzer> <reason>
// directives on the flagged line or the line above; the reason is
// mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dprle/internal/analysis"
	"dprle/internal/analyzers"
	"dprle/internal/analyzers/interproc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprlelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source files")
	list := fs.Bool("list", false, "list available analyzers with a one-line summary and exit")
	help := fs.String("help", "", "print the full documentation for one analyzer and exit")
	ip := fs.Bool("interproc", true, "enable the summary-based interprocedural layer (locksafe, nilness N3, budgetflow F3)")
	stats := fs.Bool("stats", false, "print per-analyzer statistics (findings, wall time, counters) after the findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dprlelint [-json] [-fix] [-only name,...] [-interproc=bool] [-stats] [-list] [-help name] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	interproc.Enabled = *ip

	suite := analyzers.All()
	if *help != "" {
		for _, a := range suite {
			if a.Name == *help {
				fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
				return 0
			}
		}
		fmt.Fprintf(stderr, "dprlelint: unknown analyzer %q; run -list for the suite\n", *help)
		return 2
	}
	if *list {
		width := 0
		for _, a := range suite {
			if len(a.Name) > width {
				width = len(a.Name)
			}
		}
		for _, a := range suite {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stdout, "%-*s  %s\n", width, a.Name, summary)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "dprlelint: unknown analyzers: %s\n", strings.Join(unknown, ", "))
			return 2
		}
		suite = sel
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "dprlelint: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "dprlelint: %v\n", err)
		return 2
	}
	paths, err := expandPatterns(loader, root, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "dprlelint: %v\n", err)
		return 2
	}

	var all []analysis.Finding
	merged := map[string]analysis.AnalyzerStats{}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "dprlelint: %v\n", err)
			return 2
		}
		findings, pkgStats, err := analysis.RunStats(pkg, loader.Fset, suite)
		if err != nil {
			fmt.Fprintf(stderr, "dprlelint: %v\n", err)
			return 2
		}
		for name, st := range pkgStats {
			m := merged[name]
			m.Merge(st)
			merged[name] = m
		}
		if *fix && len(findings) > 0 {
			fixed, err := analysis.ApplyFixes(loader.Fset, pkg.Sources, findings)
			if err != nil {
				fmt.Fprintf(stderr, "dprlelint: %v\n", err)
				return 2
			}
			names := make([]string, 0, len(fixed))
			for name := range fixed {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
					fmt.Fprintf(stderr, "dprlelint: %v\n", err)
					return 2
				}
				fmt.Fprintf(stderr, "dprlelint: rewrote %s\n", name)
			}
		}
		all = append(all, findings...)
	}

	// Findings were collected package by package; re-sort globally so the
	// output is ordered by file:line:col across analyzer and package
	// boundaries — byte-stable for CI diffing no matter how the package
	// list was produced.
	analysis.SortFindings(all)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(stderr, "dprlelint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range all {
			fmt.Fprintln(stdout, f)
		}
	}
	if *stats {
		printStats(stderr, suite, merged)
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// printStats renders the merged per-analyzer statistics as a table, in
// suite order. It writes to stderr so that stdout (findings, -json) stays
// byte-stable: wall times vary run to run.
func printStats(w io.Writer, suite []*analysis.Analyzer, merged map[string]analysis.AnalyzerStats) {
	width := len("analyzer")
	for _, a := range suite {
		if len(a.Name) > width {
			width = len(a.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %8s  %10s  counters\n", width, "analyzer", "findings", "wall")
	var total analysis.AnalyzerStats
	for _, a := range suite {
		st := merged[a.Name]
		total.Merge(st)
		keys := make([]string, 0, len(st.Counters))
		for k := range st.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.Counters[k]))
		}
		counters := "-"
		if len(parts) > 0 {
			counters = strings.Join(parts, " ")
		}
		fmt.Fprintf(w, "%-*s  %8d  %10s  %s\n", width, a.Name, st.Findings, st.Wall.Round(time.Microsecond), counters)
	}
	fmt.Fprintf(w, "%-*s  %8d  %10s\n", width, "total", total.Findings, total.Wall.Round(time.Microsecond))
}

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

// expandPatterns resolves command-line package patterns ("./...", "./x",
// import paths) against the module.
func expandPatterns(loader *analysis.Loader, root string, patterns []string) ([]string, error) {
	mod := loader.ModulePath()
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "..." || pat == mod+"/...":
			all, err := loader.ModulePackages()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			prefix = strings.TrimPrefix(prefix, "./")
			all, err := loader.ModulePackages()
			if err != nil {
				return nil, err
			}
			matched := false
			for _, p := range all {
				rel := strings.TrimPrefix(p, mod+"/")
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matches no packages", pat)
			}
		case pat == ".":
			add(mod)
		case strings.HasPrefix(pat, "./"):
			add(mod + "/" + filepath.ToSlash(strings.TrimPrefix(pat, "./")))
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}
