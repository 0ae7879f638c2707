package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dprle/internal/budget"
	"dprle/internal/core"
	"dprle/internal/server"
	"dprle/internal/solvecache"
	"dprle/internal/textio"
)

// The dprled stream. Every request is generated from (seed, index) when a
// client needs it: pre-building the bodies would put the stream itself in
// peak_rss_mb.
const (
	dprledRequestsPerSecond = 720.0
	// dprledWarmRequests is the untimed prefix that brings the server's
	// caches to steady state before timing.
	dprledWarmRequests = 1500
	// hotSystems is the small set exact repeats are drawn from (about a
	// fifth of the stream); they hit the response cache or collapse onto
	// an identical in-flight request.
	hotSystems = 16
	// renameBases is the pool alpha-renamed repeats are drawn from (about
	// a third of the stream). A renamed repeat misses the response cache,
	// which keys on the text, and hits the solver's component cache, which
	// keys on machine structure.
	renameBases = 512
)

// sysSpec is one generated constraint system with its known answer.
type sysSpec struct {
	text string
	sat  bool
	// vars lists every variable with the Go regexp its witness must match.
	vars []varCheck
	// The sink constraint: sinkLit . sinkVar must contain a quote.
	sinkLit, sinkVar string
}

type varCheck struct {
	name, pattern string
}

// mix derives an independent 63-bit seed from a seed and an index
// (splitmix64).
func mix(seed int64, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// streamRequest returns request i of the stream for seed.
func streamRequest(seed int64, i int) *sysSpec {
	r := rand.New(rand.NewSource(mix(seed, int64(i))))
	u := r.Float64()
	switch {
	case u < 0.20:
		return baseSystem(seed, -1-r.Intn(hotSystems), "")
	case u < 0.53:
		return baseSystem(seed, r.Intn(renameBases), fmt.Sprintf("_r%d", i))
	default:
		return baseSystem(seed, renameBases+i, "")
	}
}

// auxPattern returns a fully anchored, satisfiable filter for an auxiliary
// input, in the style of the Figure 12 corpus guards.
func auxPattern(r *rand.Rand) string {
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf(`^[a-z]{1,%d}$`, 2+r.Intn(10))
	case 1:
		return fmt.Sprintf(`^[0-9]{%d}$`, 1+r.Intn(6))
	case 2:
		return `^[A-Za-z0-9_]+$`
	case 3:
		words := []string{"on", "off", "auto", "yes", "no", "none", "all"}
		a, b := r.Intn(len(words)), r.Intn(len(words))
		return fmt.Sprintf(`^(%s|%s)$`, words[a], words[b])
	case 4:
		lo := 2 + r.Intn(4)
		return fmt.Sprintf(`^[a-f0-9]{%d,%d}$`, lo, lo+r.Intn(8))
	default:
		return `^[\w]+@[\w]+$`
	}
}

var tables = []string{"users", "orders", "items", "posts", "sessions", "votes", "carts", "pages"}

// baseSystem generates system id in the Figure 12 shape: a filtered id
// variable reaching a quote-policy sink, auxiliary filtered inputs and
// intval padding. About one system in eight is unsat by construction: its
// id filter is a fully anchored digit pattern, so the query can never
// contain a quote. suffix renames every variable and constant.
func baseSystem(seed int64, id int, suffix string) *sysSpec {
	r := rand.New(rand.NewSource(mix(seed^0x5eed, int64(id))))
	spec := &sysSpec{sat: r.Intn(8) != 0}
	var filter string
	if spec.sat {
		filter = []string{`[\d]+$`, fmt.Sprintf(`[0-9]{1,%d}$`, 2+r.Intn(6)), `[a-z0-9]+$`}[r.Intn(3)]
	} else {
		filter = []string{`^[\d]+$`, fmt.Sprintf(`^[0-9]{1,%d}$`, 2+r.Intn(6))}[r.Intn(2)]
	}
	var decl, cons strings.Builder
	idVar := "id" + suffix
	fmt.Fprintf(&decl, "const filter%s := match /%s/;\nconst quote%s := match /'/;\n", suffix, filter, suffix)
	fmt.Fprintf(&cons, "%s <= filter%s;\n", idVar, suffix)
	spec.vars = append(spec.vars, varCheck{idVar, filter})
	for k, n := 0, 1+r.Intn(5); k < n; k++ {
		pat := auxPattern(r)
		v := fmt.Sprintf("f%d%s", k, suffix)
		fmt.Fprintf(&decl, "const a%d%s := match /%s/;\n", k, suffix, pat)
		fmt.Fprintf(&cons, "%s <= a%d%s;\n", v, k, suffix)
		spec.vars = append(spec.vars, varCheck{v, pat})
	}
	if pads := r.Intn(4); pads > 0 {
		fmt.Fprintf(&decl, "const int%s := re /-?[0-9]+/;\n", suffix)
		for k := 0; k < pads; k++ {
			v := fmt.Sprintf("n%d%s", k, suffix)
			fmt.Fprintf(&cons, "%s <= int%s;\n", v, suffix)
			spec.vars = append(spec.vars, varCheck{v, `^-?[0-9]+$`})
		}
	}
	spec.sinkLit = fmt.Sprintf("SELECT * FROM %s_%d WHERE id=", tables[r.Intn(len(tables))], id&0xffff)
	spec.sinkVar = idVar
	fmt.Fprintf(&cons, "%q . %s <= quote%s;\n", spec.sinkLit, idVar, suffix)
	spec.text = decl.String() + cons.String()
	return spec
}

// answer is a solve outcome in solver-independent form: the status and,
// per assignment, each variable's witness.
type answer struct {
	status      string
	assignments []map[string]string
}

// regexps compiles and memoizes the checker's patterns; one per client.
type regexps map[string]*regexp.Regexp

func (rs regexps) get(pat string) (*regexp.Regexp, error) {
	if re, ok := rs[pat]; ok {
		return re, nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	rs[pat] = re
	return re, nil
}

// checkAnswer holds an answer to its system's known one: sat or unsat as
// constructed, and every witness of every sat assignment re-checked with
// Go's regexp and the quote condition.
func checkAnswer(spec *sysSpec, a answer, rs regexps) error {
	want := server.StatusUnsat
	if spec.sat {
		want = server.StatusSat
	}
	if a.status != want {
		return fmt.Errorf("status %s, want %s for:\n%s", a.status, want, spec.text)
	}
	if !spec.sat {
		if len(a.assignments) != 0 {
			return fmt.Errorf("unsat answer carries %d assignments", len(a.assignments))
		}
		return nil
	}
	if len(a.assignments) == 0 {
		return fmt.Errorf("sat answer carries no assignment")
	}
	for _, asg := range a.assignments {
		for _, vc := range spec.vars {
			w, ok := asg[vc.name]
			if !ok {
				return fmt.Errorf("assignment has no witness for %s", vc.name)
			}
			re, err := rs.get(vc.pattern)
			if err != nil {
				return err
			}
			if !re.MatchString(w) {
				return fmt.Errorf("witness %s=%q does not match /%s/", vc.name, w, vc.pattern)
			}
		}
		if q := spec.sinkLit + asg[spec.sinkVar]; !strings.Contains(q, "'") {
			return fmt.Errorf("sink query %q has no quote", q)
		}
	}
	return nil
}

// dprledServer is one set-up: the server with its default configuration,
// mounted on a loopback listener.
type dprledServer struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func newDprledServer(clients int) *dprledServer {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients
	return &dprledServer{srv: srv, ts: ts, client: client}
}

func (d *dprledServer) close() {
	d.ts.Close()
	_ = d.srv.Drain(context.Background())
}

func (d *dprledServer) statusz() (server.StatusResponse, error) {
	var st server.StatusResponse
	resp, err := d.client.Get(d.ts.URL + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// exchange is one /solve round trip.
type exchange struct {
	latency time.Duration
	how     string // X-Dprle-Cache
	err     error
}

// solve posts request op and checks its answer. With a tracer it records
// the round trip as a client span tagged with the cache outcome and
// carrying the response usage.
func (d *dprledServer) solve(op int, spec *sysSpec, rs regexps, tr *tracer) exchange {
	body, err := json.Marshal(server.SolveRequest{System: spec.text})
	if err != nil {
		return exchange{err: err}
	}
	s := tr.start(op, -1, "server.solve")
	start := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/solve", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ex := exchange{latency: time.Since(start), err: err}
	tr.finish(s)
	if err != nil {
		return ex
	}
	ex.how = resp.Header.Get(server.CacheHeader)
	tr.tag(s, ex.how)
	if resp.StatusCode != http.StatusOK {
		ex.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return ex
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		ex.err = fmt.Errorf("decoding response: %w", err)
		return ex
	}
	tr.count(s, "states", sr.Usage.States)
	tr.count(s, "steps", sr.Usage.Steps)
	switch {
	case sr.Degraded != nil || sr.Usage.Exhausted:
		ex.err = fmt.Errorf("degraded answer (%v)", sr.Degraded)
	case ex.how != server.CacheHit && ex.how != server.CacheMiss && ex.how != server.CacheCollapsed:
		ex.err = fmt.Errorf("unexpected %s header %q", server.CacheHeader, ex.how)
	default:
		a := answer{status: sr.Status}
		for _, asg := range sr.Assignments {
			m := map[string]string{}
			for v, sol := range asg {
				m[v] = sol.Witness
			}
			a.assignments = append(a.assignments, m)
		}
		ex.err = checkAnswer(spec, a, rs)
	}
	return ex
}

// drive sends requests [from, to) of the stream from closed-loop clients,
// hands each exchange to each (concurrently) and returns the tally. With a
// tracer, odd-numbered requests are traced and even ones are not.
func (d *dprledServer) drive(seed int64, from, to, clients int, tr *tracer, each func(i int, ex exchange)) tally {
	var next atomic.Int64
	next.Store(int64(from))
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			rs := regexps{}
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				var str *tracer
				if i%2 == 1 {
					str = tr
				}
				ex := d.solve(i, streamRequest(seed, i), rs, str)
				t.record(ex.err)
				if each != nil {
					each(i, ex)
				}
			}
		}(&tallies[c])
	}
	wg.Wait()
	var t tally
	for _, ct := range tallies {
		t.merge(ct)
	}
	return t
}

// runDprled runs the dprled stream against server.New's defaults: the
// response cache, request collapsing, the shared solvecache and the budget
// clamps. There is one closed-loop client per two CPUs: a client's own
// work (encoding, checking answers) and the server's solving then leave
// the machine a core of headroom. With one client per CPU on a shared
// 2-core VM, other tenants' load doubled the run-to-run spread of the
// median latency.
func runDprled(c config) (*report, error) {
	clients := max(1, runtime.NumCPU()/2)
	var d *dprledServer
	var t tally
	setups, release, err := repeatSetup(func() (func(), error) {
		d = newDprledServer(clients)
		t.merge(d.drive(c.seed, 0, dprledWarmRequests, clients, nil, nil))
		return d.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	var tr *tracer
	if c.trace {
		tr = newTracer(false)
	}
	runtime.GC()

	from, to := dprledWarmRequests, dprledWarmRequests+opsFor(c.seconds, dprledRequestsPerSecond)
	if c.trace && to-from < 2 {
		to = from + 2
	}
	lat := make([]time.Duration, to-from)
	hows := make([]string, to-from)
	before, err := d.statusz()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	t.merge(d.drive(c.seed, from, to, clients, tr, func(i int, ex exchange) {
		lat[i-from], hows[i-from] = ex.latency, ex.how
	}))
	elapsed := time.Since(start)
	after, err := d.statusz()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "  statusz over the timed phase: %s\n", statuszDelta(before, after))
	if !c.trace {
		r := newReport(t)
		timing{setups: setups, samples: lat, elapsed: elapsed}.endToEnd(r)
		return r, nil
	}
	var untraced, traced []time.Duration
	var tracedHows []string
	for i := range lat {
		if (from+i)%2 == 1 {
			traced = append(traced, lat[i])
			tracedHows = append(tracedHows, hows[i])
		} else {
			untraced = append(untraced, lat[i])
		}
	}
	r := newReport(t)
	reportServerLayers(r, before, after, len(lat), traced, tracedHows)

	// Replay the same stream in-process through textio.Parse and
	// core.SolveCtx with a cache configured like the server's, after the
	// same untimed prefix.
	cache := solvecache.New(solvecache.Config{})
	eff := d.srv.Config()
	opts := core.Options{Cache: cache, Limits: budget.Limits{MaxStates: eff.MaxStates, MaxSteps: eff.MaxSteps}}
	rs := regexps{}
	for i := 0; i < from; i++ {
		_, err := replay(nil, i, streamRequest(c.seed, i), opts, eff.DefaultTimeout, rs)
		t.record(err)
	}
	// The replay runs on this goroutine alone, so allocation deltas mean
	// something from here on.
	tr.allocs = true
	for i := from; i < to; i++ {
		sys, err := replay(tr, i, streamRequest(c.seed, i), opts, eff.DefaultTimeout, rs)
		t.record(err)
		if sys != nil {
			canonProbe(tr, i, sys)
		}
	}
	r.Attempted, r.Failed, r.Correct, r.failures = t.attempted, t.failed, t.failed == 0, t.failures
	reportReplayLayers(r, tr, to-from)
	return r, finishTrace(c, tr, r, untraced, traced)
}

// replay solves one request in-process the way the server's worker does,
// with spans when tr is not nil, and checks the answer.
func replay(tr *tracer, op int, spec *sysSpec, opts core.Options, timeout time.Duration, rs regexps) (*core.System, error) {
	root := tr.start(op, -1, "replay")
	sys, a, err := replaySolve(tr, op, root, spec, opts, timeout)
	tr.finish(root)
	if err != nil {
		return sys, err
	}
	return sys, checkAnswer(spec, a, rs)
}

func replaySolve(tr *tracer, op, root int, spec *sysSpec, opts core.Options, timeout time.Duration) (*core.System, answer, error) {
	s := tr.start(op, root, "textio.Parse")
	sys, err := textio.Parse(spec.text)
	tr.finish(s)
	if err != nil {
		return nil, answer{}, err
	}
	s = tr.start(op, root, "core.BuildGraph")
	g := core.BuildGraph(sys)
	groups, free := len(g.CIGroups()), len(g.FreeVars())
	tr.finish(s)
	tr.count(s, "ci_groups", int64(groups))
	tr.count(s, "free_vars", int64(free))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	s = tr.start(op, root, "core.SolveCtx")
	res, err := core.SolveCtx(ctx, sys, opts)
	tr.finish(s)
	if err != nil {
		return sys, answer{}, err
	}
	tr.count(s, "states", res.Usage.States)
	tr.count(s, "steps", res.Usage.Steps)
	s = tr.start(op, root, "nfa.ShortestWitness")
	a := answer{status: server.StatusUnsat}
	if res.Sat() {
		a.status = server.StatusSat
	}
	for _, asg := range res.Assignments {
		m := map[string]string{}
		for _, v := range sys.Vars() {
			if w, ok := asg.Lookup(v).ShortestWitness(); ok {
				m[v] = w
			}
		}
		a.assignments = append(a.assignments, m)
	}
	tr.finish(s)
	return sys, a, nil
}

func statuszDelta(a, b server.StatusResponse) string {
	return fmt.Sprintf("requests=%d sat=%d unsat=%d unknown=%d exhausted=%d shed=%d collapsed=%d cache_hits=%d cache_misses=%d solvecache{hits=%d misses=%d puts=%d evictions=%d entries=%d bytes=%d}",
		b.Requests-a.Requests, b.Sat-a.Sat, b.Unsat-a.Unsat, b.Unknown-a.Unknown, b.Exhausted-a.Exhausted,
		b.Shed-a.Shed, b.Collapsed-a.Collapsed, b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses,
		b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses, b.Cache.Puts-a.Cache.Puts,
		b.Cache.Evictions-a.Cache.Evictions, b.Cache.Entries, b.Cache.Bytes)
}

// reportServerLayers derives the server metrics from the traced client
// spans, and the server and solvecache counters from the /statusz deltas
// over the timed phase of total requests.
func reportServerLayers(r *report, a, b server.StatusResponse, total int, lat []time.Duration, hows []string) {
	var hit, miss []time.Duration
	for i, h := range hows {
		switch h {
		case server.CacheHit:
			hit = append(hit, lat[i])
		case server.CacheMiss:
			miss = append(miss, lat[i])
		}
	}
	n := len(lat)
	r.set("server.hit_frac", float64(len(hit))/float64(n), n, "response-cache hits per traced request")
	r.set("server.hit_ms.p50", median(millis(hit)), len(hit), "")
	r.set("server.miss_ms.p50", median(millis(miss)), len(miss), "")
	r.set("server.miss_ms.p99", quantile(millis(miss), 0.99), len(miss), "")
	r.set("server.collapsed", float64(b.Collapsed-a.Collapsed), total, "total over the timed phase")
	r.set("server.shed", float64(b.Shed-a.Shed), total, "total over the timed phase")
	r.set("server.degraded", float64(b.Exhausted-a.Exhausted), total, "budget trips, total over the timed phase")
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	frac := 0.0
	if hits+misses > 0 {
		frac = float64(hits) / float64(hits+misses)
	}
	r.set("solvecache.hit_frac", frac, int(hits+misses), "lookups of the server's shared cache")
	r.set("solvecache.puts", float64(b.Cache.Puts-a.Cache.Puts), total, "total over the timed phase")
	r.set("solvecache.evictions", float64(b.Cache.Evictions-a.Cache.Evictions), total, "total over the timed phase")
	r.set("solvecache.bytes", float64(b.Cache.Bytes), total, "accounted bytes held at the end")
}

// reportReplayLayers derives the textio, core and nfa metrics from the
// in-process replay, per replayed request.
func reportReplayLayers(r *report, tr *tracer, ops int) {
	ls := tr.sums()
	r.set("textio.parse_ms", ls.perOpMillis("textio.Parse", ops), ops, "in-process replay")
	r.set("core.solve_ms", ls.perOpMillis("core.SolveCtx", ops), ops, "in-process replay")
	r.set("core.states", ls.perOp("core.SolveCtx/states", ops), ops, "")
	r.set("core.steps", ls.perOp("core.SolveCtx/steps", ops), ops, "")
	r.set("core.ci_groups", ls.perOp("core.BuildGraph/ci_groups", ops), ops, "")
	r.set("core.free_vars", ls.perOp("core.BuildGraph/free_vars", ops), ops, "")
	r.set("core.alloc_mb", ls.perOpMB("core.SolveCtx", ops), ops, "")
	r.set("nfa.canon_ms", ls.perOpMillis("nfa.Minimized", ops), ops, "probe outside the replayed solve")
	r.set("nfa.canon_states_in", ls.perOp("nfa.Minimized/states_in", ops), ops, "")
	r.set("nfa.canon_states_out", ls.perOp("nfa.Minimized/states_out", ops), ops, "")
	r.set("nfa.witness_ms", ls.perOpMillis("nfa.ShortestWitness", ops), ops, "")
}
