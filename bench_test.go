// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations and substrate micro-benchmarks.
//
//	BenchmarkFigure4CI        — the concat_intersect pipeline of Fig. 3/4
//	BenchmarkSection311       — the disjunctive example of §3.1.1
//	BenchmarkFigure9GCI       — the shared-variable CI-group of Fig. 9/10
//	BenchmarkFig12/*          — the seventeen defects of Figure 12
//	                            (warp/secure, the paper's 577 s
//	                            large-constant row, is the slowest by an
//	                            order of magnitude but solves in under a
//	                            second; skipped with -short)
//	BenchmarkFig11Generation  — corpus generation for the Figure 11 table
//	BenchmarkCIStateSweep/*   — §3.5: O(Q²) product growth, single CI
//	BenchmarkChainedCI/*      — §3.5: chained concat_intersect (O(Q⁵) case)
//	BenchmarkExtraSubset/*    — §3.5: doubly constrained concatenation
//	BenchmarkAblation/*       — solver options: maximalization, constant
//	                            canonicalization, intermediate minimization
//	BenchmarkNFA*             — substrate micro-benchmarks
//
// Regenerate the paper's tables directly with:
//
//	go run ./cmd/benchtab -table all
//	go run ./cmd/benchtab -table fig12 -full   # includes warp/secure
package dprle_test

import (
	"fmt"
	"testing"

	"dprle"
	"dprle/internal/core"
	"dprle/internal/corpus"
	"dprle/internal/experiments"
	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// BenchmarkFigure4CI runs the paper's Fig. 3 algorithm on the Fig. 4 inputs:
// c1 = "nid_", c2 = Σ*[0-9], c3 = Σ*'Σ*.
func BenchmarkFigure4CI(b *testing.B) {
	b.ReportAllocs()
	c1 := nfa.Minimized(nfa.Literal("nid_"))
	c2 := nfa.Minimized(regex.MustMatchLanguage(`[\d]+$`))
	c3 := nfa.Minimized(regex.MustMatchLanguage(`'`))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols := core.ConcatIntersect(c1, c2, c3)
		if len(sols) != 1 {
			b.Fatalf("solutions = %d", len(sols))
		}
	}
}

// BenchmarkSection311 solves the inherently disjunctive example of §3.1.1.
func BenchmarkSection311(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := dprle.NewSystem()
		sys.MustRequire(dprle.V("v1"), "c1", dprle.MustRegexLang("x(yy)+"))
		sys.MustRequire(dprle.V("v2"), "c2", dprle.MustRegexLang("(yy)*z"))
		sys.MustRequire(dprle.Concat(dprle.V("v1"), dprle.V("v2")), "c3",
			dprle.MustRegexLang("xyyz|xyyyyz"))
		res, err := sys.Solve(dprle.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Assignments) != 2 {
			b.Fatalf("assignments = %d", len(res.Assignments))
		}
	}
}

// BenchmarkFigure9GCI solves the mutually dependent concatenations of
// Fig. 9/10.
func BenchmarkFigure9GCI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := dprle.NewSystem()
		sys.MustRequire(dprle.V("va"), "cva", dprle.MustRegexLang("o(pp)+"))
		sys.MustRequire(dprle.V("vb"), "cvb", dprle.MustRegexLang("p*(qq)+"))
		sys.MustRequire(dprle.V("vc"), "cvc", dprle.MustRegexLang("q*r"))
		sys.MustRequire(dprle.Concat(dprle.V("va"), dprle.V("vb")), "c1",
			dprle.MustRegexLang("op{5}q*"))
		sys.MustRequire(dprle.Concat(dprle.V("vb"), dprle.V("vc")), "c2",
			dprle.MustRegexLang("p*q{4}r"))
		res, err := sys.Solve(dprle.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Assignments) != 4 {
			b.Fatalf("assignments = %d", len(res.Assignments))
		}
	}
}

// BenchmarkFig12 measures every Figure 12 defect end to end (parse →
// symbolic execution → constraint solving → exploit extraction), reporting
// the measured |FG|, |C|, and the solve time that corresponds to the
// published TS column.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	for _, d := range corpus.Defects() {
		d := d
		b.Run(d.App+"/"+d.Name, func(b *testing.B) {
			b.ReportAllocs()
			if d.Big && testing.Short() {
				b.Skip("warp/secure is the large-constant row (paper: 577 s), the slowest by an order of magnitude; run without -short")
			}
			var lastRow experiments.Fig12Row
			for i := 0; i < b.N; i++ {
				row, err := experiments.RunDefect(d, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if row.Findings != 1 {
					b.Fatalf("findings = %d", row.Findings)
				}
				lastRow = row
			}
			b.ReportMetric(float64(lastRow.FG), "FG")
			b.ReportMetric(float64(lastRow.C), "C")
			b.ReportMetric(d.PaperTS, "paperTS(s)")
		})
	}
}

// BenchmarkFig11Generation measures generating the three application trees
// of the data-set table.
func BenchmarkFig11Generation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// sweepSizes are the Q values of the §3.5 sweeps.
var sweepSizes = []int{4, 8, 16, 32, 64}

// BenchmarkCIStateSweep measures a single concat_intersect as input machine
// size grows; the product machine is O(Q²) and solutions O(Q).
func BenchmarkCIStateSweep(b *testing.B) {
	b.ReportAllocs()
	for _, q := range sweepSizes {
		q := q
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			var p experiments.ComplexityPoint
			for i := 0; i < b.N; i++ {
				p = experiments.CISweep(q)
			}
			b.ReportMetric(float64(p.M5States), "M5states")
			b.ReportMetric(float64(p.Solutions), "solutions")
		})
	}
}

// chainedSweepSizes bounds the exhaustively enumerating sweeps (the O(Q⁵)
// cases) to modest machine sizes.
var chainedSweepSizes = []int{4, 8, 12, 16}

// BenchmarkChainedCI measures the chained system of §3.5 (two inductive
// concat_intersect applications).
func BenchmarkChainedCI(b *testing.B) {
	b.ReportAllocs()
	for _, q := range chainedSweepSizes {
		q := q
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.ChainedSweep(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtraSubset measures the doubly constrained concatenation of
// §3.5.
func BenchmarkExtraSubset(b *testing.B) {
	b.ReportAllocs()
	for _, q := range chainedSweepSizes {
		q := q
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.ExtraSubsetSweep(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation toggles the solver's design choices on a mid-size
// Figure 12 defect (utopia/styles: |C| = 156): the final maximalization
// fixpoint, the up-front canonicalization of constants (off = the paper
// prototype's verbatim tracking), and intermediate-machine minimization
// (the improvement the paper speculates about for the secure case).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	d, ok := corpus.DefectByName("utopia/styles")
	if !ok {
		b.Fatal("defect missing")
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.Options{}},
		{"no-maximalize", core.Options{NoMaximalize: true}},
		{"raw-constants", core.Options{RawConstants: true}},
		{"minimize-intermediates", core.Options{Minimize: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, err := experiments.RunDefect(d, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				if row.Findings != 1 {
					b.Fatal("defect not found")
				}
			}
		})
	}
}

// Substrate micro-benchmarks.

func benchMachines(q int) (*nfa.NFA, *nfa.NFA) {
	a := regex.MustCompile(fmt.Sprintf("(ab|cd){0,%d}", q))
	c := regex.MustCompile(fmt.Sprintf("[a-d]{0,%d}", 2*q))
	return a, c
}

func BenchmarkNFAIntersect(b *testing.B) {
	b.ReportAllocs()
	a, c := benchMachines(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa.Intersect(a, c)
	}
}

func BenchmarkNFADeterminize(b *testing.B) {
	b.ReportAllocs()
	a, _ := benchMachines(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa.Determinize(a)
	}
}

func BenchmarkNFAMinimize(b *testing.B) {
	b.ReportAllocs()
	a, _ := benchMachines(32)
	d := nfa.Determinize(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Minimize()
	}
}

func BenchmarkNFAComplement(b *testing.B) {
	b.ReportAllocs()
	a, _ := benchMachines(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa.Complement(a)
	}
}

func BenchmarkNFASubset(b *testing.B) {
	b.ReportAllocs()
	a, c := benchMachines(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !nfa.Subset(a, c) {
			b.Fatal("subset should hold")
		}
	}
}

func BenchmarkRegexCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		regex.MustCompile(`^(GET|POST)[ ]+[\w\/.?=&%-]+[ ]+HTTP\/1\.[01]$`)
	}
}

func BenchmarkMatchLanguage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		regex.MustMatchLanguage(`[\d]+$`)
	}
}

// BenchmarkMaximalize isolates the quotient-based maximality fixpoint on
// the motivating system (the stage the solver adds beyond the paper's
// structural construction).
func BenchmarkMaximalize(b *testing.B) {
	b.ReportAllocs()
	mk := func() (*core.System, core.Assignment) {
		s := core.NewSystem()
		c1 := s.MustConst("c1", regex.MustMatchLanguage(`[\d]+$`))
		c2 := s.MustConst("c2", nfa.Literal("nid_"))
		c3 := s.MustConst("c3", regex.MustMatchLanguage(`'`))
		s.MustAdd(core.Var{Name: "v1"}, c1)
		s.MustAdd(core.Cat{Left: c2, Right: core.Var{Name: "v1"}}, c3)
		res, err := core.Solve(s, core.Options{NoMaximalize: true})
		if err != nil || !res.Sat() {
			b.Fatal("setup failed")
		}
		return s, res.Assignments[0]
	}
	s, raw := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := core.Solve(s, core.Options{})
		if err != nil || !full.Sat() {
			b.Fatal("solve failed")
		}
		_ = raw
	}
}

// BenchmarkQuotients measures the MaxMiddle construction the maximality
// checker and fixpoint are built on.
func BenchmarkQuotients(b *testing.B) {
	b.ReportAllocs()
	pre := nfa.Literal("SELECT * FROM news WHERE newsid=nid_")
	post := nfa.Epsilon()
	c := regex.MustMatchLanguage(`'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nfa.MaxMiddle(pre, post, c)
		if m.IsEmpty() {
			b.Fatal("unexpected empty quotient")
		}
	}
}

// BenchmarkSolveForPartial compares partial solving against a full solve on
// a system with one relevant and many irrelevant constraint groups.
func BenchmarkSolveForPartial(b *testing.B) {
	b.ReportAllocs()
	mk := func() *dprle.System {
		sys := dprle.NewSystem()
		sys.MustRequire(dprle.V("target"), "tfilter", dprle.MustMatchLang(`[\d]+$`))
		sys.MustRequire(dprle.Concat(sys.Lit("nid_"), dprle.V("target")), "tunsafe",
			dprle.MustMatchLang(`'`))
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("other%d", i)
			sys.MustRequire(dprle.V(name+"a"), "c1"+name, dprle.MustRegexLang("x(yy)+"))
			sys.MustRequire(dprle.V(name+"b"), "c2"+name, dprle.MustRegexLang("(yy)*z"))
			sys.MustRequire(dprle.Concat(dprle.V(name+"a"), dprle.V(name+"b")), "c3"+name,
				dprle.MustRegexLang("xyyz|xyyyyz"))
		}
		return sys
	}
	b.Run("solve-for-target", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mk().SolveFor([]string{"target"}, dprle.Options{})
			if err != nil || !res.Sat() {
				b.Fatal("failed")
			}
		}
	})
	b.Run("full-solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mk().Solve(dprle.Options{})
			if err != nil || !res.Sat() {
				b.Fatal("failed")
			}
		}
	})
}
