package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/lang"
	"dprle/internal/nfa"
	"dprle/internal/symexec"
	"dprle/webcheck"
)

// Op rates on the reference machine (see opsFor): a fig12 pass is the
// sixteen ordinary defects; a secure op is one warp/secure verdict.
const (
	fig12PassesPerSecond = 5.0
	secureOpsPerSecond   = 1.0 / 12
)

// defectCase is one Figure 12 defect with the facts its verdict is checked
// against. The facts come from the generated source and the concrete
// interpreter, not from the solver.
type defectCase struct {
	name   string // app/name
	file   string
	src    string
	prog   *lang.Program  // for replaying exploits through lang.Execute
	filter *regexp.Regexp // the vulnerable input's filter, under Go's regexp
	idKey  string         // the filtered input, "POST:<name>_id"
}

// mainFilter finds the vulnerable flow in a generated defect: the POST
// input read into $id and the preg_match filter guarding it.
var mainFilter = regexp.MustCompile(`\$id = \$_POST\['([A-Za-z0-9_]+)'\];\nif \(!preg_match\('/(.*)/', \$id\)\) \{ exit; \}`)

// loadDefects returns the ordinary Figure 12 defects, or warp/secure
// alone when pathological is set.
func loadDefects(pathological bool) ([]*defectCase, error) {
	var out []*defectCase
	for _, d := range webcheck.CorpusDefects() {
		if d.Pathological != pathological {
			continue
		}
		dc, err := newDefectCase(d)
		if err != nil {
			return nil, err
		}
		out = append(out, dc)
	}
	if len(out) == 0 {
		return nil, errors.New("no corpus defects")
	}
	return out, nil
}

func newDefectCase(d webcheck.Defect) (*defectCase, error) {
	name := d.App + "/" + d.Name
	src, err := webcheck.DefectSource(d)
	if err != nil {
		return nil, err
	}
	m := mainFilter.FindStringSubmatch(src)
	if m == nil {
		return nil, fmt.Errorf("%s: no filtered $id input in the generated source", name)
	}
	filter, err := regexp.Compile(m[2])
	if err != nil {
		return nil, fmt.Errorf("%s: filter: %w", name, err)
	}
	file := d.Name + ".php"
	prog, err := lang.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return &defectCase{name: name, file: file, src: src, prog: prog, filter: filter, idKey: "POST:" + m[1]}, nil
}

// checkVerdict holds a verdict to the known answer: exactly one SQL
// finding; its filtered input passes the filter under Go's regexp; and
// replaying all its inputs through the concrete interpreter sends a query
// containing a quote to the sink.
func checkVerdict(dc *defectCase, findings []webcheck.Finding) error {
	if len(findings) != 1 || findings[0].Kind != webcheck.SQL {
		return fmt.Errorf("%s: want exactly one sql finding, got %d", dc.name, len(findings))
	}
	inputs := findings[0].Inputs
	exploit, ok := inputs[dc.idKey]
	if !ok {
		return fmt.Errorf("%s: finding has no %s input", dc.name, dc.idKey)
	}
	if !dc.filter.MatchString(exploit) {
		return fmt.Errorf("%s: %s=%q does not pass the filter /%s/", dc.name, dc.idKey, exploit, dc.filter)
	}
	req := lang.Request{Get: map[string]string{}, Post: map[string]string{}}
	keys := make([]string, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		src, key, _ := strings.Cut(k, ":")
		switch src {
		case "GET":
			req.Get[key] = inputs[k]
		case "POST":
			req.Post[key] = inputs[k]
		default:
			return fmt.Errorf("%s: unknown input source in %q", dc.name, k)
		}
	}
	tr, err := lang.Execute(dc.prog, req)
	if err != nil {
		return fmt.Errorf("%s: replaying the exploit: %w", dc.name, err)
	}
	for _, q := range tr.Queries {
		if strings.Contains(q, "'") {
			return nil
		}
	}
	return fmt.Errorf("%s: replayed exploit sent no query with a quote (%d queries, exited=%t)", dc.name, len(tr.Queries), tr.Exited)
}

// verdict is one untraced op: the public entry point on one defect.
func verdict(dc *defectCase) (time.Duration, error) {
	start := time.Now()
	rep, err := webcheck.AnalyzeSource(dc.file, dc.src)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", dc.name, err)
	}
	return d, checkVerdict(dc, rep.Findings)
}

// setUpDefects generates the workload's defects and warms up with one
// untimed, checked pass over the ordinary defects.
func setUpDefects(pathological bool) ([]*defectCase, tally, error) {
	var t tally
	cases, err := loadDefects(pathological)
	if err != nil {
		return nil, t, err
	}
	warm := cases
	if pathological {
		if warm, err = loadDefects(false); err != nil {
			return nil, t, err
		}
	}
	for _, dc := range warm {
		_, err := verdict(dc)
		t.record(err)
	}
	return cases, t, nil
}

func runFig12(c config) (*report, error) {
	return runDefects(c, false, fig12PassesPerSecond)
}

func runSecure(c config) (*report, error) {
	return runDefects(c, true, secureOpsPerSecond)
}

// runDefects runs fig12 (every ordinary defect per pass, in a seeded order)
// or secure (warp/secure alone), one client, no solve cache, no budget. A
// traced run alternates untraced and traced passes, so drift over the run
// does not show up as tracing overhead.
func runDefects(c config, pathological bool, passesPerSecond float64) (*report, error) {
	var cases []*defectCase
	var t tally
	setups, release, err := repeatSetup(func() (func(), error) {
		var st tally
		var err error
		cases, st, err = setUpDefects(pathological)
		t.merge(st)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer release()
	passes := opsFor(c.seconds, passesPerSecond)
	if c.trace && passes < 2 {
		passes = 2
	}
	rng := rand.New(rand.NewSource(c.seed))
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	var tr *tracer
	if c.trace {
		tr = newTracer(true)
	}
	conf := symexec.DefaultConfig()
	var untraced, traced []time.Duration
	runtime.GC()
	start := time.Now()
	for p := 0; p < passes; p++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			dc := cases[k]
			if c.trace && p%2 == 1 {
				d, err := tracedVerdict(tr, len(traced), dc, conf)
				traced = append(traced, d)
				t.record(err)
				continue
			}
			d, err := verdict(dc)
			untraced = append(untraced, d)
			t.record(err)
		}
	}
	elapsed := time.Since(start)
	r := newReport(t)
	if !c.trace {
		timing{setups: setups, samples: untraced, elapsed: elapsed}.endToEnd(r)
		return r, nil
	}
	reportDefectLayers(r, tr, traced)
	return r, finishTrace(c, tr, r, untraced, traced)
}

// tracedVerdict repeats what webcheck.AnalyzeSource does for one defect,
// calling each layer itself in the entry point's order with a span around
// every call: lang.Parse, cfg.Build, cfg.PathsToSinks, then per path
// symexec.ForPath, core.BuildGraph (counts only), core.DecideCtx and
// ShortestWitness on the decided inputs. The canonicalization probe runs
// after the op's spans close.
func tracedVerdict(tr *tracer, op int, dc *defectCase, conf symexec.Config) (time.Duration, error) {
	start := time.Now()
	root := tr.start(op, -1, "op")
	findings, systems, err := tracedAnalyze(tr, op, root, dc, conf)
	tr.finish(root)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", dc.name, err)
	}
	for _, sys := range systems {
		canonProbe(tr, op, sys)
	}
	return d, checkVerdict(dc, findings)
}

func tracedAnalyze(tr *tracer, op, root int, dc *defectCase, conf symexec.Config) ([]webcheck.Finding, []*core.System, error) {
	s := tr.start(op, root, "lang.Parse")
	prog, err := lang.Parse(dc.file, dc.src)
	tr.finish(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.start(op, root, "cfg.Build")
	g := cfg.Build(prog)
	tr.finish(s)
	tr.count(s, "blocks", int64(g.NumBlocks()))
	s = tr.start(op, root, "cfg.PathsToSinks")
	paths := cfg.PathsToSinks(prog, conf.MaxPaths)
	tr.finish(s)
	tr.count(s, "paths", int64(len(paths)))

	var findings []webcheck.Finding
	var systems []*core.System
	done := map[int]bool{}
	for _, p := range paths {
		if conf.FirstPerSink && done[p.Line] {
			continue
		}
		pol, kind := conf.SQL, webcheck.SQL
		if p.Kind == cfg.SinkXSS {
			pol, kind = conf.XSS, webcheck.XSS
		}
		s = tr.start(op, root, "symexec.ForPath")
		ps, err := symexec.ForPath(p, pol)
		tr.finish(s)
		if err != nil {
			return nil, nil, err
		}
		tr.count(s, "constraints", int64(ps.NumConstraints))
		if len(ps.Inputs) == 0 {
			continue
		}
		s = tr.start(op, root, "core.BuildGraph")
		dg := core.BuildGraph(ps.Sys)
		groups, free := len(dg.CIGroups()), len(dg.FreeVars())
		tr.finish(s)
		tr.count(s, "ci_groups", int64(groups))
		tr.count(s, "free_vars", int64(free))
		s = tr.start(op, root, "core.DecideCtx")
		a, ok, usage, err := core.DecideCtx(context.Background(), ps.Sys, ps.Inputs, conf.Solver)
		tr.finish(s)
		tr.count(s, "states", usage.States)
		tr.count(s, "steps", usage.Steps)
		if err != nil {
			return nil, nil, err
		}
		systems = append(systems, ps.Sys)
		if !ok {
			continue
		}
		s = tr.start(op, root, "nfa.ShortestWitness")
		inputs := map[string]string{}
		for _, v := range ps.Inputs {
			w, wok := a.Lookup(v).ShortestWitness()
			if !wok {
				tr.finish(s)
				return nil, nil, fmt.Errorf("decided variable %s is empty", v)
			}
			inputs[v] = w
		}
		tr.finish(s)
		findings = append(findings, webcheck.Finding{File: dc.file, Line: p.Line, Kind: kind, Inputs: inputs})
		done[p.Line] = true
	}
	return findings, systems, nil
}

// canonProbe times nfa.Minimized over each distinct constant of a system:
// the canonicalization core performs first in every solve. It runs outside
// the op's spans, as a root span of its own.
func canonProbe(tr *tracer, op int, sys *core.System) {
	g := core.BuildGraph(sys)
	s := tr.start(op, -1, "nfa.Minimized")
	var in, out int64
	for _, n := range g.Nodes {
		if n.Kind != core.ConstNode {
			continue
		}
		in += int64(n.Con.Lang.NumStates())
		out += int64(nfa.Minimized(n.Con.Lang).NumStates())
	}
	tr.finish(s)
	tr.count(s, "states_in", in)
	tr.count(s, "states_out", out)
}

// reportDefectLayers derives fig12's and secure's per-layer metrics, per
// traced op.
func reportDefectLayers(r *report, tr *tracer, traced []time.Duration) {
	ls := tr.sums()
	ops := len(traced)
	opMs := 0.0
	for _, v := range millis(traced) {
		opMs += v
	}
	opMs /= float64(ops)
	share := func(ms, of float64) string { return fmt.Sprintf("%.1f%% of %.4f ms", 100*ms/of, of) }

	r.set("lang.parse_ms", ls.perOpMillis("lang.Parse", ops), ops, share(ls.perOpMillis("lang.Parse", ops), opMs))
	r.set("lang.alloc_mb", ls.perOpMB("lang.Parse", ops), ops, "")
	r.set("cfg.build_ms", ls.perOpMillis("cfg.Build", ops), ops, share(ls.perOpMillis("cfg.Build", ops), opMs))
	r.set("cfg.blocks", ls.perOp("cfg.Build/blocks", ops), ops, "")
	r.set("cfg.paths_ms", ls.perOpMillis("cfg.PathsToSinks", ops), ops, share(ls.perOpMillis("cfg.PathsToSinks", ops), opMs))
	r.set("cfg.paths", ls.perOp("cfg.PathsToSinks/paths", ops), ops, "")
	r.set("symexec.forpath_ms", ls.perOpMillis("symexec.ForPath", ops), ops, share(ls.perOpMillis("symexec.ForPath", ops), opMs))
	r.set("symexec.constraints", ls.perOp("symexec.ForPath/constraints", ops), ops, "")
	r.set("symexec.alloc_mb", ls.perOpMB("symexec.ForPath", ops), ops, "")
	solve := ls.perOpMillis("core.DecideCtx", ops)
	r.set("core.solve_ms", solve, ops, share(solve, opMs))
	r.set("core.states", ls.perOp("core.DecideCtx/states", ops), ops, "")
	r.set("core.steps", ls.perOp("core.DecideCtx/steps", ops), ops, "")
	r.set("core.ci_groups", ls.perOp("core.BuildGraph/ci_groups", ops), ops, "")
	r.set("core.free_vars", ls.perOp("core.BuildGraph/free_vars", ops), ops, "")
	r.set("core.alloc_mb", ls.perOpMB("core.DecideCtx", ops), ops, "")
	canon := ls.perOpMillis("nfa.Minimized", ops)
	r.set("nfa.canon_ms", canon, ops, fmt.Sprintf("probe outside the op on one goroutine: %.0f%% of core.solve_ms", 100*canon/solve))
	r.set("nfa.canon_states_in", ls.perOp("nfa.Minimized/states_in", ops), ops, "")
	r.set("nfa.canon_states_out", ls.perOp("nfa.Minimized/states_out", ops), ops, "")
	r.set("nfa.witness_ms", ls.perOpMillis("nfa.ShortestWitness", ops), ops, share(ls.perOpMillis("nfa.ShortestWitness", ops), opMs))
}
