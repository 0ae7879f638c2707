package experiments

// The hot-path experiment: steady-state measurements of the NFA substrate
// operations the solver spends its time in — chained cross-products with
// trimming (gci stage 1/2), the induce-per-seam loop (gci stage 4 / ci),
// determinization, minimization, DFA membership, and a full corpus solve —
// each reported as wall time plus heap allocations. cmd/benchtab renders the
// report with -table hotpath and emits it machine-readably as
// BENCH_hotpath.json, carrying a frozen baseline (captured before the
// zero-copy/bitset rework) so every run shows the speedup trajectory.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dprle/internal/core"
	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// HotpathRow is one measured workload: total wall time and heap traffic
// across Iters iterations (after one untimed warm-up iteration).
type HotpathRow struct {
	Name   string `json:"name"`
	Iters  int    `json:"iters"`
	WallNS int64  `json:"wall_ns"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
}

// HotpathReport is one full measurement pass.
type HotpathReport struct {
	Rows []HotpathRow `json:"rows"`
}

// Row returns the named row, if present.
func (r HotpathReport) Row(name string) (HotpathRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return HotpathRow{}, false
}

// HotpathFile is the BENCH_hotpath.json schema: the current measurement,
// an optional frozen baseline, and the per-row wall/alloc ratios between
// them (baseline over current, so bigger is better).
type HotpathFile struct {
	Baseline   *HotpathReport     `json:"baseline,omitempty"`
	Current    HotpathReport      `json:"current"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`
	AllocRatio map[string]float64 `json:"alloc_ratio,omitempty"`
}

// CompareHotpath attaches baseline to current and computes the per-row
// ratios for every workload present in both.
func CompareHotpath(baseline *HotpathReport, current HotpathReport) HotpathFile {
	f := HotpathFile{Baseline: baseline, Current: current}
	if baseline == nil {
		return f
	}
	f.Speedup = map[string]float64{}
	f.AllocRatio = map[string]float64{}
	for _, cur := range current.Rows {
		base, ok := baseline.Row(cur.Name)
		if !ok || base.Iters == 0 || cur.Iters == 0 {
			continue
		}
		curWall := float64(cur.WallNS) / float64(cur.Iters)
		baseWall := float64(base.WallNS) / float64(base.Iters)
		if curWall > 0 {
			f.Speedup[cur.Name] = baseWall / curWall
		}
		curAllocs := float64(cur.Allocs) / float64(cur.Iters)
		baseAllocs := float64(base.Allocs) / float64(base.Iters)
		if curAllocs > 0 {
			f.AllocRatio[cur.Name] = baseAllocs / curAllocs
		}
	}
	return f
}

// hotpathMeasure runs fn once untimed (warming per-machine memo caches, the
// same steady state the solver's loops run in), then measures iters timed
// iterations, reporting wall time and heap-counter deltas.
func hotpathMeasure(name string, iters int, fn func()) HotpathRow {
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return HotpathRow{
		Name:   name,
		Iters:  iters,
		WallNS: wall.Nanoseconds(),
		Allocs: int64(after.Mallocs - before.Mallocs),
		Bytes:  int64(after.TotalAlloc - before.TotalAlloc),
	}
}

// HotpathExperiment measures the six hot-path workloads. skipBig excludes
// the pathological warp/secure defect from the corpus row, matching the
// cache experiment's default.
func HotpathExperiment(skipBig bool) (HotpathReport, error) {
	var rep HotpathReport

	// product-chain: gci stage 1 in miniature — a variable's language is
	// repeatedly intersected with constraining constants, trimming between
	// steps. The chained products re-derive each other's parallel edges,
	// which is exactly what Build-time edge normalization targets.
	ca := regex.MustCompile("(ab|cd){0,8}")
	cb := regex.MustCompile("[a-d]{0,16}")
	cc := regex.MustCompile("(ab){0,4}(cd){0,4}")
	var chainOut *nfa.NFA
	rep.Rows = append(rep.Rows, hotpathMeasure("product-chain", 5, func() {
		lang := nfa.AnyString()
		for _, c := range []*nfa.NFA{ca, cb, cc} {
			lang = nfa.Intersect(lang, c).Trim()
		}
		chainOut = lang
	}))
	if chainOut == nil || chainOut.IsEmpty() {
		return rep, fmt.Errorf("hotpath: product chain came out empty")
	}

	// induce-gci: the per-seam slicing loop of concat_intersect / gci
	// stage 4 — every surviving seam edge induces a (v1, v2) span pair,
	// each checked for emptiness. The root machine is built once; the
	// measured loop is pure Induce + IsEmpty, the path the zero-copy views
	// turn allocation-free.
	q1 := regex.MustCompile("(ab|cd){0,6}")
	q2 := regex.MustCompile("[a-d]{0,12}")
	q3 := regex.MustCompile("[a-d]{0,16}")
	m5 := nfa.Intersect(nfa.ConcatTagged(q1, q2, 0), q3).Trim()
	seams := m5.TaggedEdges()
	if len(seams) < 8 {
		return rep, fmt.Errorf("hotpath: induce root has only %d seams", len(seams))
	}
	nonempty := 0
	rep.Rows = append(rep.Rows, hotpathMeasure("induce-gci", 10, func() {
		nonempty = 0
		for _, seam := range seams {
			v1 := m5.Induce(m5.Start(), seam.From)
			v2 := m5.Induce(seam.To, m5.Final())
			if !v1.IsEmpty() && !v2.IsEmpty() {
				nonempty++
			}
		}
	}))
	if nonempty == 0 {
		return rep, fmt.Errorf("hotpath: no nonempty induced span pair")
	}

	// determinize: the subset construction on a mid-size nondeterministic
	// machine — the solver's worst-case-exponential step, driven by the
	// closure/step kernels and the subset keying.
	dm := regex.MustCompile("(ab|cd){0,32}")
	var dfa *nfa.DFA
	rep.Rows = append(rep.Rows, hotpathMeasure("determinize", 100, func() {
		dfa = nfa.Determinize(dm)
	}))

	// minimize: Hopcroft's refinement on the DFA of a 2,000-byte literal,
	// the shape of the long query constants the solver canonicalizes. The
	// chain is already minimal, and refining it round by round takes one
	// round per state. It is determinized once, outside the timed loop.
	var text strings.Builder
	for i := 0; text.Len() < 2000; i++ {
		fmt.Fprintf(&text, "col_%02d_%02d,", i/8, i%8)
	}
	chain := nfa.Determinize(nfa.Literal(text.String()[:2000]))
	var minimal *nfa.DFA
	rep.Rows = append(rep.Rows, hotpathMeasure("minimize", 20, func() {
		minimal = chain.Minimize()
	}))
	if minimal.NumStates() != chain.NumStates() {
		return rep, fmt.Errorf("hotpath: minimizing a minimal %d-state chain gave %d states",
			chain.NumStates(), minimal.NumStates())
	}

	// dfa-membership: byte-at-a-time acceptance on the determinized
	// machine — the atom-lookup path.
	word := ""
	for i := 0; i < 32; i++ {
		word += "ab"
	}
	accepted := false
	rep.Rows = append(rep.Rows, hotpathMeasure("dfa-membership", 20000, func() {
		accepted = dfa.Accepts(word)
	}))
	if !accepted {
		return rep, fmt.Errorf("hotpath: dfa rejected its own word")
	}

	// corpus-solve: the realistic end-to-end mix — every Figure 12
	// constraint system solved for its inputs, caching disabled, timing
	// and allocation-counting only the solves.
	systems, err := CorpusSystems(skipBig)
	if err != nil {
		return rep, err
	}
	var solveErr error
	rep.Rows = append(rep.Rows, hotpathMeasure("corpus-solve", 2, func() {
		for _, ps := range systems {
			if _, err := core.SolveFor(ps.Sys, ps.Inputs, core.Options{}); err != nil {
				solveErr = fmt.Errorf("%s: %w", ps.Sink.Kind, err)
				return
			}
		}
	}))
	if solveErr != nil {
		return rep, solveErr
	}
	return rep, nil
}

// FormatHotpath renders the hot-path report, one row per workload, with
// the baseline ratios when a baseline is attached.
func FormatHotpath(f HotpathFile) string {
	out := "NFA hot paths — steady-state wall time and allocations per iteration\n"
	out += fmt.Sprintf("  %-14s %12s %12s %14s", "workload", "wall/iter", "allocs/iter", "bytes/iter")
	if f.Baseline != nil {
		out += fmt.Sprintf(" %9s %9s", "speedup", "alloc-x")
	}
	out += "\n"
	for _, row := range f.Current.Rows {
		if row.Iters == 0 {
			continue
		}
		wall := time.Duration(row.WallNS / int64(row.Iters))
		out += fmt.Sprintf("  %-14s %12s %12d %14d",
			row.Name, wall, row.Allocs/int64(row.Iters), row.Bytes/int64(row.Iters))
		if f.Baseline != nil {
			out += " " + ratioCell(f.Speedup, row.Name) + " " + ratioCell(f.AllocRatio, row.Name)
		}
		out += "\n"
	}
	return out
}

// ratioCell renders one baseline ratio column, blank for a workload the
// baseline does not have.
func ratioCell(ratios map[string]float64, name string) string {
	r, ok := ratios[name]
	if !ok {
		return fmt.Sprintf("%9s", "-")
	}
	return fmt.Sprintf("%8.1fx", r)
}
