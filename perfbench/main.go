// Command perfbench is the repository benchmark. It runs one workload
// through the program's public entry points, checks every answer against
// one known independently of the solver, and prints each metric by name
// with its unit and sample count. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run calls each layer's public functions itself, records a span around
// every call, and reports per-layer metrics derived from the spans; the
// spans are written to .bench_build/traces when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      io.Writer // human-readable report lines
}

// traceDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/traces"

// workloads maps each workload name to its runner. The runner reports
// the end-to-end metrics when cfg.trace is false and the per-layer
// metrics when it is true.
var workloads = map[string]func(cfg config) (*report, error){
	"fig12":  runFig12,
	"secure": runSecure,
	"dprled": runDprled,
	"lint":   runLint,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "fig12, secure, dprled or lint")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "intended length of the timed phase; sets the fixed op count")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fig12, secure, dprled or lint)\n", cfg.workload)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.out = stdout
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
	}
	if err := rep.complete(want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.print(stdout, want)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef declares one metric BENCHMARK.json lists.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the metrics a user of the program sees. Failed ops
// are reported through the result's attempted and failed counts; as a
// fraction they would read 0 on every correct run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p99", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics. Times are self times per
// op unless the name says otherwise; a metric of a layer the workload
// never calls reads 0.
var perLayerMetrics = []metricDef{
	{"lang.parse_ms", "ms"},
	{"lang.alloc_mb", "MB"},
	{"cfg.build_ms", "ms"},
	{"cfg.blocks", "count"},
	{"cfg.paths_ms", "ms"},
	{"cfg.paths", "count"},
	{"symexec.forpath_ms", "ms"},
	{"symexec.constraints", "count"},
	{"symexec.alloc_mb", "MB"},
	{"core.solve_ms", "ms"},
	{"core.states", "count"},
	{"core.steps", "count"},
	{"core.ci_groups", "count"},
	{"core.free_vars", "count"},
	{"core.alloc_mb", "MB"},
	{"nfa.canon_ms", "ms"},
	{"nfa.canon_states_in", "count"},
	{"nfa.canon_states_out", "count"},
	{"nfa.witness_ms", "ms"},
	{"textio.parse_ms", "ms"},
	{"server.hit_frac", "frac"},
	{"server.hit_ms.p50", "ms"},
	{"server.miss_ms.p50", "ms"},
	{"server.miss_ms.p99", "ms"},
	{"server.collapsed", "count"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"solvecache.hit_frac", "frac"},
	{"solvecache.puts", "count"},
	{"solvecache.evictions", "count"},
	{"solvecache.bytes", "bytes"},
	{"analysis.load_ms", "ms"},
	{"analysis.packages", "count"},
	{"analyzers.budgetcheck_ms", "ms"},
	{"analyzers.budgetflow_ms", "ms"},
	{"analyzers.cachekey_ms", "ms"},
	{"analyzers.ctxbudget_ms", "ms"},
	{"analyzers.locksafe_ms", "ms"},
	{"analyzers.mapiterorder_ms", "ms"},
	{"analyzers.nilness_ms", "ms"},
	{"analyzers.panicguard_ms", "ms"},
	{"analyzers.sharemut_ms", "ms"},
	{"analyzers.strlang_ms", "ms"},
	{"analyzers.findings", "count"},
	{"strlang.solver_calls", "count"},
	{"strlang.cache_hits", "count"},
	{"strlang.widenings", "count"},
	{"strlang.solves_unknown", "count"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value. n and note feed only the human-readable
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// report is the run's result; its JSON form is the last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

func newReport(t tally) *report {
	return &report{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
		failures:  t.failures,
	}
}

// set records a metric with the sample count behind it.
func (r *report) set(name string, value float64, n int, note string) {
	r.Metrics[name] = metric{Value: value, n: n, note: note}
}

// complete attaches units and fills the metrics of layers the workload
// does not call with 0, so every run reports the full declared set. A
// metric the runner set that is not declared is a bug in the runner.
func (r *report) complete(defs []metricDef) error {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		m, ok := r.Metrics[d.name]
		if !ok {
			m.note = "layer not called by this workload"
		}
		m.Unit = d.unit
		r.Metrics[d.name] = m
	}
	var undeclared []string
	for name := range r.Metrics {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("metrics %q are not declared", undeclared)
	}
	if r.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	return nil
}

func (r *report) print(w io.Writer, defs []metricDef) {
	fail := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "  %-28s %14.6f  (failed %d of %d attempted)\n", "fail_frac", fail, r.Failed, r.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "    failure: %s\n", f)
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("  %-28s %14.6f %-6s", d.name, m.Value, d.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, line)
	}
}

// tally counts attempted and failed ops and keeps the first few failure
// descriptions for the report.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, err.Error())
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// setupRuns is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 3

// repeatSetup runs once setupRuns times, releasing every state but the
// last outside the timed window, and returns the set-up durations and the
// release function of the state it kept.
func repeatSetup(once func() (release func(), err error)) ([]time.Duration, func(), error) {
	var durs []time.Duration
	release := func() {}
	for i := 0; i < setupRuns; i++ {
		release()
		start := time.Now()
		rel, err := once()
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, time.Since(start))
		release = rel
	}
	return durs, release, nil
}

// opsFor turns the requested run length into a fixed op count, so every
// run of a workload does the same work whatever the machine's speed.
// perSecond is the op rate the workload reached on a 2-core x86-64 VM
// when the benchmark was defined.
func opsFor(seconds int, perSecond float64) int {
	n := int(math.Round(float64(seconds) * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

// timing is what an end-to-end run measured.
type timing struct {
	setups  []time.Duration
	samples []time.Duration // one latency per op
	elapsed time.Duration   // wall time of the timed phase
}

// endToEnd derives the end-to-end metrics.
func (t timing) endToEnd(r *report) {
	r.set("setup_s", median(seconds(t.setups)), len(t.setups), "median of the run's set-ups")
	ms := millis(t.samples)
	n := len(ms)
	r.set("latency_ms.p50", quantile(ms, 0.50), n, "")
	p99 := quantile(ms, 0.99)
	beyond := 0
	for _, v := range ms {
		if v > p99 {
			beyond++
		}
	}
	note := fmt.Sprintf("%d samples beyond", beyond)
	if beyond < 10 {
		note += "; fewer than 10, so read it as the slowest ops, not a p99"
	}
	r.set("latency_ms.p99", p99, n, note)
	r.set("throughput_per_s", float64(n)/t.elapsed.Seconds(), n, fmt.Sprintf("over %.3f s", t.elapsed.Seconds()))
	r.set("peak_rss_mb", peakRSSMB(), 1, "")
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB). getrusage cannot fail for RUSAGE_SELF and a valid
// pointer, so the error is dropped.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (v is not
// modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
