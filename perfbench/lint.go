package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dprle/internal/analysis"
	"dprle/internal/analyzers"
	"dprle/internal/analyzers/strlang"
)

const (
	// lintPassesPerSecond is the reference op rate (see opsFor).
	lintPassesPerSecond = 0.6
	// lintPackages is the number of generated packages in one pass.
	lintPackages = 6
)

// lintPackage is one generated package and the findings seeded into it.
type lintPackage struct {
	path string // import path, also the directory name under the pass root
	src  string
	want []int // lines of the seeded findings, in order
}

// lintCorpus is what one lint pass analyzes. Every pass gets its own
// corpus: strlang memoizes discharges for the life of the process, so a
// pass over an already-seen corpus would never call the solver, while a
// dprlelint invocation starts with an empty memo.
type lintCorpus struct {
	root string
	pkgs []lintPackage
}

// srcBuilder accumulates generated source lines and the lines a finding
// is seeded on.
type srcBuilder struct {
	lines []string
	want  []int
}

func (b *srcBuilder) add(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// seeded adds a line the suite must report.
func (b *srcBuilder) seeded(format string, args ...any) {
	b.add(format, args...)
	b.want = append(b.want, len(b.lines))
}

// genPackage writes one package in the style of the strlang fixtures:
// fmt.Sprintf, + and strings.Join query builders feeding database/sql
// sinks, seeded injections beside digit-only siblings, loops that force
// widening, helper functions that need summaries, and //dprle:subset
// directives. Every package has the same shape, so the seed changes names,
// literals and the order of declarations but not how much work a pass is.
// Literal text carries the package name, so no two packages share a
// discharge.
func genPackage(r *rand.Rand, name string) lintPackage {
	b := &srcBuilder{}
	tbl := fmt.Sprintf("%s_%s", tables[r.Intn(len(tables))], name)
	col := func() string { return fmt.Sprintf("c%d", r.Intn(100)) }
	var blocks []func()
	for k := 0; k < 3; k++ {
		k, c1, c2, limit := k, col(), col(), 5+r.Intn(50)
		blocks = append(blocks,
			func() {
				b.add("func bySprintf%d(db *sql.DB, user string) (*sql.Rows, error) {", k)
				b.add("\tq := fmt.Sprintf(\"select id, %s from %s where name = '%%s' limit %d\", user)", c1, tbl, limit)
				b.seeded("\treturn db.Query(q)")
				b.add("}")
			},
			func() {
				b.add("func bySprintfID%d(db *sql.DB, id int) (*sql.Rows, error) {", k)
				b.add("\tq := fmt.Sprintf(\"select id, %s from %s where id = %%s limit %d\", strconv.Itoa(id))", c1, tbl, limit)
				b.add("\treturn db.Query(q)")
				b.add("}")
			},
			func() {
				b.add("func byConcat%d(tx *sql.Tx, user string) error {", k)
				b.add("\tq := \"delete from %s where %s = '\" + user + \"'\"", tbl, c2)
				b.seeded("\t_, err := tx.Exec(q)")
				b.add("\treturn err")
				b.add("}")
			},
			func() {
				b.add("func byConcatID%d(tx *sql.Tx, n int) error {", k)
				b.add("\tq := \"delete from %s where %s = \" + strconv.Itoa(n)", tbl, c2)
				b.add("\t_, err := tx.Exec(q)")
				b.add("\treturn err")
				b.add("}")
			},
			func() {
				b.add("func byVerb%d(db *sql.DB, id int, ok bool) (*sql.Rows, error) {", k)
				b.add("\tq := fmt.Sprintf(\"select %s from %s where id = %%d and ok = %%t\", id, ok)", c2, tbl)
				b.add("\treturn db.Query(q)")
				b.add("}")
			})
	}
	blocks = append(blocks,
		func() {
			b.add("func joined(db *sql.DB, user string) (*sql.Rows, error) {")
			b.add("\tq := strings.Join([]string{\"select %s from %s where name = '\", user, \"'\"}, \"\")", col(), tbl)
			b.seeded("\treturn db.Query(q)")
			b.add("}")
		},
		func() {
			b.add("func grown(db *sql.DB, names []string) {")
			b.add("\tq := \"select * from %s where name in (\"", tbl)
			b.add("\tfor _, n := range names {")
			b.add("\t\tq += \"'\" + n + \"',\"")
			b.add("\t}")
			b.add("\tq += \"'x')\"")
			b.seeded("\tdb.Query(q)")
			b.add("}")
		},
		func() {
			b.add("func constQuery() string {")
			b.add("\treturn \"select id from %s where ok = 'y'\"", tbl)
			b.add("}")
			b.add("")
			b.add("func helperClean(db *sql.DB) {")
			b.add("\tdb.Query(constQuery())")
			b.add("}")
		},
		func() {
			b.add("func quoteName(name string) string {")
			b.add("\treturn fmt.Sprintf(\"%s.name = '%%s'\", name)", tbl)
			b.add("}")
			b.add("")
			b.add("func helperInjected(db *sql.DB, user string) {")
			b.seeded("\tdb.Query(\"select * from %s where \" + quoteName(user))", tbl)
			b.add("}")
		},
		func() {
			b.add("// lower wants a short lowercase word.")
			b.add("//")
			b.add("//dprle:subset word /^[a-z]{1,%d}$/", 4+r.Intn(8))
			b.add("func lower(word string) string {")
			b.add("\treturn word")
			b.add("}")
			b.add("")
			b.add("func callers(user string) {")
			b.add("\tlower(\"ab\")")
			b.seeded("\tlower(\"%s\")", strings.ToUpper(name))
			b.seeded("\tlower(\"a\" + user)")
			b.add("}")
		})
	r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })

	b.add("// Package %s is generated input for the dprlelint benchmark.", name)
	b.add("package %s", name)
	b.add("")
	b.add("import (")
	b.add("\t\"database/sql\"")
	b.add("\t\"fmt\"")
	b.add("\t\"strconv\"")
	b.add("\t\"strings\"")
	b.add(")")
	for _, blk := range blocks {
		b.add("")
		blk()
	}
	return lintPackage{path: name, src: strings.Join(b.lines, "\n") + "\n", want: b.want}
}

// writeCorpus generates and writes the corpus called variant under dir.
func writeCorpus(dir string, seed int64, variant string) (lintCorpus, error) {
	h := fnv.New64a()
	h.Write([]byte(variant))
	r := rand.New(rand.NewSource(mix(seed, int64(h.Sum64()))))
	c := lintCorpus{root: filepath.Join(dir, variant)}
	for k := 0; k < lintPackages; k++ {
		p := genPackage(r, fmt.Sprintf("%sk%d", variant, k))
		pdir := filepath.Join(c.root, p.path)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return c, err
		}
		if err := os.WriteFile(filepath.Join(pdir, p.path+".go"), []byte(p.src), 0o644); err != nil {
			return c, err
		}
		c.pkgs = append(c.pkgs, p)
	}
	return c, nil
}

// checkFindings holds one pass's findings to exactly the seeded ones.
func checkFindings(c lintCorpus, got []analysis.Finding) error {
	want := map[string]int{}
	for _, p := range c.pkgs {
		for _, line := range p.want {
			want[fmt.Sprintf("%s.go:%d strlang", p.path, line)]++
		}
	}
	var extra []string
	for _, f := range got {
		key := fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer)
		if want[key] == 0 {
			extra = append(extra, key+": "+f.Message)
			continue
		}
		want[key]--
	}
	var missing []string
	for k, n := range want {
		if n > 0 {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	if len(extra) > 0 || len(missing) > 0 {
		return fmt.Errorf("%s: %d unexpected findings %q, %d seeded findings missing %q", filepath.Base(c.root), len(extra), extra, len(missing), missing)
	}
	return nil
}

// lintSums accumulates what analysis.RunStats reports over traced passes.
type lintSums struct {
	packages int
	findings int
	wall     map[string]time.Duration
	counters map[string]int
}

// lintPass is one op: a fresh loader, then every package loaded and run
// through analyzers.All(), as dprlelint does. With a tracer it records a
// span around each Loader.Load and analysis.RunStats call and adds what
// RunStats reports to sums.
func lintPass(tr *tracer, op int, c lintCorpus, sums *lintSums) (time.Duration, error) {
	start := time.Now()
	root := tr.start(op, -1, "op")
	all, err := analyzeCorpus(tr, op, root, c, sums)
	tr.finish(root)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, checkFindings(c, all)
}

func analyzeCorpus(tr *tracer, op, root int, c lintCorpus, sums *lintSums) ([]analysis.Finding, error) {
	loader := analysis.NewSourceLoader(c.root)
	suite := analyzers.All()
	var all []analysis.Finding
	for _, p := range c.pkgs {
		s := tr.start(op, root, "analysis.Load")
		pkg, err := loader.Load(p.path)
		tr.finish(s)
		if err != nil {
			return nil, err
		}
		s = tr.start(op, root, "analysis.RunStats")
		fs, stats, err := analysis.RunStats(pkg, loader.Fset, suite)
		tr.finish(s)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
		if sums == nil {
			continue
		}
		sums.packages++
		sums.findings += len(fs)
		for name, st := range stats {
			sums.wall[name] += st.Wall
			for k, v := range st.Counters {
				sums.counters[name+"/"+k] += v
			}
		}
	}
	return all, nil
}

// runLint lints a generated corpus of standard-library-only packages with
// analyzers.All(), one client, one fresh source loader per pass.
func runLint(c config) (*report, error) {
	passes := opsFor(c.seconds, lintPassesPerSecond)
	if c.trace && passes < 2 {
		passes = 2 // one untraced and one traced pass, each on a fresh corpus
	}
	base, err := os.MkdirTemp("", "perfbench-lint-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	var corpora []lintCorpus
	var t tally
	setupN := 0
	setups, release, err := repeatSetup(func() (func(), error) {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", setupN))
		setupN++
		corpora = corpora[:0]
		for p := 0; p < passes; p++ {
			lc, err := writeCorpus(dir, c.seed, fmt.Sprintf("p%d", p))
			if err != nil {
				return nil, err
			}
			corpora = append(corpora, lc)
		}
		// Warm-up: one untimed pass over a corpus of its own.
		warm, err := writeCorpus(dir, c.seed, fmt.Sprintf("w%d", setupN))
		if err != nil {
			return nil, err
		}
		_, err = lintPass(nil, 0, warm, nil)
		t.record(err)
		return func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	runtime.GC()

	var tr *tracer
	sums := &lintSums{wall: map[string]time.Duration{}, counters: map[string]int{}}
	if c.trace {
		tr = newTracer(false)
	}
	var untraced, traced []time.Duration
	start := time.Now()
	for p := 0; p < passes; p++ {
		if c.trace && p%2 == 1 {
			d, err := lintPass(tr, len(traced), corpora[p], sums)
			traced = append(traced, d)
			t.record(err)
			continue
		}
		d, err := lintPass(nil, 0, corpora[p], nil)
		untraced = append(untraced, d)
		t.record(err)
	}
	elapsed := time.Since(start)
	if !c.trace {
		r := newReport(t)
		timing{setups: setups, samples: untraced, elapsed: elapsed}.endToEnd(r)
		return r, nil
	}
	ops := len(traced)
	r := newReport(t)
	ls := tr.sums()
	r.set("analysis.load_ms", ls.perOpMillis("analysis.Load", ops), ops, "")
	r.set("analysis.packages", float64(sums.packages)/float64(ops), ops, "")
	for _, a := range analyzers.All() {
		r.set("analyzers."+a.Name+"_ms", float64(sums.wall[a.Name])/float64(time.Millisecond)/float64(ops), ops, "wall time RunStats reports")
	}
	r.set("analyzers.findings", float64(sums.findings)/float64(ops), ops, "")
	perOp := func(k string) float64 { return float64(sums.counters["strlang/"+k]) / float64(ops) }
	r.set("strlang.solver_calls", perOp(strlang.StatSolverCalls), ops, "")
	r.set("strlang.cache_hits", perOp(strlang.StatCacheHits), ops, "")
	r.set("strlang.widenings", perOp(strlang.StatWidenings), ops, "")
	r.set("strlang.solves_unknown", perOp(strlang.StatUnknown), ops, "")
	return r, finishTrace(c, tr, r, untraced, traced)
}
