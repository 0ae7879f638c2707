package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dprle/internal/core"
	"dprle/internal/textio"
	"dprle/webcheck"
)

// The checks below are what makes fail_frac mean something: each test
// shows that a correct answer passes and that a corrupted answer, or a
// wrong expectation, is counted as a failure.

func TestFig12CheckCountsBadVerdicts(t *testing.T) {
	cases, err := loadDefects(false)
	if err != nil {
		t.Fatal(err)
	}
	dc := cases[0]
	rep, err := webcheck.AnalyzeSource(dc.file, dc.src)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVerdict(dc, rep.Findings); err != nil {
		t.Fatalf("correct verdict rejected: %v", err)
	}

	corrupt := func(mutate func(in map[string]string)) []webcheck.Finding {
		f := rep.Findings[0]
		in := map[string]string{}
		for k, v := range f.Inputs {
			in[k] = v
		}
		mutate(in)
		f.Inputs = in
		return []webcheck.Finding{f}
	}
	bad := map[string][]webcheck.Finding{
		"no finding":             nil,
		"two findings":           append(rep.Findings, rep.Findings[0]),
		"exploit fails filter":   corrupt(func(in map[string]string) { in[dc.idKey] = "'" }),
		"exploit without quote":  corrupt(func(in map[string]string) { in[dc.idKey] = "7" }),
		"exploit input missing":  corrupt(func(in map[string]string) { delete(in, dc.idKey) }),
		"guard input corrupted":  corrupt(func(in map[string]string) { in["GET:f0"] = "!!" }),
		"unknown input source":   corrupt(func(in map[string]string) { in["COOKIE:x"] = "1" }),
		"guard input missing":    corrupt(func(in map[string]string) { delete(in, "GET:f0") }),
		"exploit with a newline": corrupt(func(in map[string]string) { in[dc.idKey] = "'0\nx" }),
	}
	for name, fs := range bad {
		var tl tally
		tl.record(checkVerdict(dc, fs))
		if tl.failed != 1 {
			t.Errorf("%s: not counted as a failure", name)
		}
	}

	wrong := *dc
	wrong.idKey = "POST:other_id"
	if checkVerdict(&wrong, rep.Findings) == nil {
		t.Error("wrong expected input accepted")
	}
}

func TestDprledCheckCountsBadAnswers(t *testing.T) {
	var sat, unsat *sysSpec
	for i := 0; sat == nil || unsat == nil; i++ {
		spec := baseSystem(1, renameBases+i, "")
		if spec.sat && sat == nil {
			sat = spec
		}
		if !spec.sat && unsat == nil {
			unsat = spec
		}
	}
	solve := func(spec *sysSpec) answer {
		sys, err := textio.Parse(spec.text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.SolveCtx(context.Background(), sys, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a := answer{status: "unsat"}
		if res.Sat() {
			a.status = "sat"
		}
		for _, asg := range res.Assignments {
			m := map[string]string{}
			for _, v := range sys.Vars() {
				m[v], _ = asg.Lookup(v).ShortestWitness()
			}
			a.assignments = append(a.assignments, m)
		}
		return a
	}
	rs := regexps{}
	good := solve(sat)
	if err := checkAnswer(sat, good, rs); err != nil {
		t.Fatalf("correct sat answer rejected: %v", err)
	}
	if err := checkAnswer(unsat, solve(unsat), rs); err != nil {
		t.Fatalf("correct unsat answer rejected: %v", err)
	}

	witness := func(v, w string) answer {
		m := map[string]string{}
		for k, x := range good.assignments[0] {
			m[k] = x
		}
		if w == "" {
			delete(m, v)
		} else {
			m[v] = w
		}
		return answer{status: "sat", assignments: []map[string]string{m}}
	}
	flipped := *sat
	flipped.sat = false
	bad := []struct {
		name string
		spec *sysSpec
		a    answer
	}{
		{"id witness without quote", sat, witness(sat.sinkVar, "7")},
		{"id witness fails filter", sat, witness(sat.sinkVar, "'")},
		{"guard witness fails its filter", sat, witness("f0", "!")},
		{"witness missing", sat, witness("f0", "")},
		{"sat answer without assignments", sat, answer{status: "sat"}},
		{"unsat answer to a sat system", sat, answer{status: "unsat"}},
		{"sat answer to an unsat system", unsat, good},
		{"wrong expected answer", &flipped, good},
	}
	for _, b := range bad {
		var tl tally
		tl.record(checkAnswer(b.spec, b.a, rs))
		if tl.failed != 1 {
			t.Errorf("%s: not counted as a failure", b.name)
		}
	}
}

func TestDprledRoundTripChecked(t *testing.T) {
	d := newDprledServer(1)
	defer d.close()
	if tl := d.drive(1, 0, 40, 2, nil, nil); tl.failed != 0 || tl.attempted != 40 {
		t.Fatalf("stream prefix: %d of %d failed: %v", tl.failed, tl.attempted, tl.failures)
	}
	spec := *streamRequest(1, 3)
	spec.sat = !spec.sat
	if ex := d.solve(3, &spec, regexps{}, nil); ex.err == nil {
		t.Fatal("answer checked against a wrong expectation was accepted")
	}
}

func TestLintCheckCountsBadFindings(t *testing.T) {
	dir := t.TempDir()
	p := genPackage(rand.New(rand.NewSource(1)), "pkgone")
	if err := os.MkdirAll(filepath.Join(dir, p.path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, p.path, p.path+".go"), []byte(p.src), 0o644); err != nil {
		t.Fatal(err)
	}
	c := lintCorpus{root: dir, pkgs: []lintPackage{p}}
	if _, err := lintPass(nil, 0, c, nil); err != nil {
		t.Fatalf("seeded findings not matched: %v", err)
	}
	missing := p
	missing.want = append([]int{1}, p.want...)
	extra := p
	extra.want = p.want[1:]
	for name, lp := range map[string]lintPackage{"expected finding missing": missing, "unexpected finding": extra} {
		var tl tally
		_, err := lintPass(nil, 0, lintCorpus{root: dir, pkgs: []lintPackage{lp}}, nil)
		tl.record(err)
		if tl.failed != 1 {
			t.Errorf("%s: not counted as a failure", name)
		}
	}
}

// TestOutputContract runs fig12 briefly through run and checks the last
// output line: exactly the result keys, and every end-to-end metric.
func TestOutputContract(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"--workload", "fig12", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d: %s", rc, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}
	if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
		t.Errorf("run not correct: %s", lines[len(lines)-1])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEndMetrics)
	same("per_layer", bm.PerLayer, perLayerMetrics)
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
