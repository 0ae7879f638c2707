package dprle_test

// Corpus-wide acceptance tests for the solve cache: answers served from the
// cache must be indistinguishable from fresh solves on the whole Figure 12
// corpus (witnesses verified against the constraint checker), and the warm
// path must skip the solver work the cache exists to save. The tests gate
// on counters; BenchmarkCacheCold/Warm measure the time (`make bench` runs
// them once each).

import (
	"testing"

	"dprle/internal/core"
	"dprle/internal/experiments"
	"dprle/internal/nfa"
	"dprle/internal/solvecache"
	"dprle/internal/symexec"
)

func corpusSystems(tb testing.TB) []*symexec.PathSystem {
	tb.Helper()
	systems, err := experiments.CorpusSystems(true)
	if err != nil {
		tb.Fatal(err)
	}
	if len(systems) == 0 {
		tb.Fatal("corpus produced no constraint systems")
	}
	return systems
}

// TestCacheCorpusEquivalence proves cached ≡ uncached over the whole
// corpus: every system is solved fresh and against a cache warmed by a
// structurally identical (but independently built) batch, and the two
// results must agree — same satisfiability, same number of disjuncts,
// language-equivalent machines variable by variable — with every cached
// assignment independently verified against the system's constraints.
func TestCacheCorpusEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the corpus three times")
	}
	opts := core.Options{}
	cache := solvecache.New(solvecache.Config{})
	warmOpts := opts
	warmOpts.Cache = cache

	// Warm the cache from an independently built batch, so every cached
	// entry was keyed through canonicalization of *different* machine
	// pointers and state numberings than the ones queried below.
	for _, ps := range corpusSystems(t) {
		if _, err := core.SolveFor(ps.Sys, ps.Inputs, warmOpts); err != nil {
			t.Fatalf("warming on %s: %v", ps.Sink.Kind, err)
		}
	}
	before := cache.Stats()

	fresh := corpusSystems(t)
	for _, ps := range fresh {
		plain, err := core.SolveFor(ps.Sys, ps.Inputs, opts)
		if err != nil {
			t.Fatalf("uncached solve on %s: %v", ps.Sink.Kind, err)
		}
		cached, err := core.SolveFor(ps.Sys, ps.Inputs, warmOpts)
		if err != nil {
			t.Fatalf("cached solve on %s: %v", ps.Sink.Kind, err)
		}
		if plain.Sat() != cached.Sat() {
			t.Fatalf("%s: uncached sat=%v, cached sat=%v", ps.Sink.Kind, plain.Sat(), cached.Sat())
		}
		if len(plain.Assignments) != len(cached.Assignments) {
			t.Fatalf("%s: uncached %d disjuncts, cached %d",
				ps.Sink.Kind, len(plain.Assignments), len(cached.Assignments))
		}
		for i := range plain.Assignments {
			for _, v := range ps.Sys.Vars() {
				a, b := plain.Assignments[i].Lookup(v), cached.Assignments[i].Lookup(v)
				if !nfa.Equivalent(a, b) {
					t.Fatalf("%s: disjunct %d, variable %s: cached language differs from uncached",
						ps.Sink.Kind, i, v)
				}
			}
		}
		// The cached answers must hold up under the independent checker,
		// not merely match. SolveFor is partial — variables outside the
		// requested set legitimately stay at Σ*, which need not satisfy
		// their own constraints — so first-principles verification runs on
		// the full solve, where every constraint is in scope. A shared bug
		// in solve-and-store would survive the comparisons above but not
		// this.
		plainFull, err := core.Solve(ps.Sys, opts)
		if err != nil {
			t.Fatalf("uncached full solve on %s: %v", ps.Sink.Kind, err)
		}
		cachedFull, err := core.Solve(ps.Sys, warmOpts)
		if err != nil {
			t.Fatalf("cached full solve on %s: %v", ps.Sink.Kind, err)
		}
		if plainFull.Sat() != cachedFull.Sat() || len(plainFull.Assignments) != len(cachedFull.Assignments) {
			t.Fatalf("%s: full solve disagrees: uncached sat=%v/%d, cached sat=%v/%d",
				ps.Sink.Kind, plainFull.Sat(), len(plainFull.Assignments),
				cachedFull.Sat(), len(cachedFull.Assignments))
		}
		for i, a := range cachedFull.Assignments {
			if !core.Satisfies(ps.Sys, a) {
				t.Fatalf("%s: cached disjunct %d does not satisfy the system", ps.Sink.Kind, i)
			}
		}
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("verification pass never hit the cache: before %+v, after %+v", before, after)
	}
}

// TestCacheCorpusSpeedup gates the warm path on counters that repeat
// exactly rather than on a wall-clock ratio: the cold corpus pass builds
// 17163 NFA states in 1088 solver checkpoints, the fill pass stores each
// of its 47 misses, and a pass over freshly rebuilt systems is then
// answered from the cache alone — 852 hits, no new misses or puts, and no
// state materialized. That avoided work is where the warm speedup comes
// from; BenchmarkCacheCold/Warm measure the speedup itself.
func TestCacheCorpusSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the corpus several times")
	}
	pass := func(opts core.Options) (states, steps int64) {
		for _, ps := range corpusSystems(t) {
			res, err := core.SolveFor(ps.Sys, ps.Inputs, opts)
			if err != nil {
				t.Fatalf("%s: %v", ps.Sink.Kind, err)
			}
			states += res.Usage.States
			steps += res.Usage.Steps
		}
		return states, steps
	}
	if states, steps := pass(core.Options{}); states != 17163 || steps != 1088 {
		t.Errorf("cold pass: %d states, %d steps; want 17163, 1088", states, steps)
	}
	cache := solvecache.New(solvecache.Config{})
	warm := core.Options{Cache: cache}
	pass(warm)
	if fill := cache.Stats(); fill.Misses != 47 || fill.Puts != 47 {
		t.Errorf("fill pass: %d misses, %d puts; want 47, 47", fill.Misses, fill.Puts)
	}
	before := cache.Stats()
	states, _ := pass(warm)
	after := cache.Stats()
	hits, misses, puts := after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts
	if hits != 852 || misses != 0 || puts != 0 || states != 0 {
		t.Errorf("warm pass: %d hits, %d misses, %d puts, %d states; want 852, 0, 0, 0",
			hits, misses, puts, states)
	}
}

// BenchmarkCacheCold solves the corpus with caching disabled: the baseline
// the warm benchmark is read against.
func BenchmarkCacheCold(b *testing.B) {
	b.ReportAllocs()
	opts := core.Options{}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		systems := corpusSystems(b)
		b.StartTimer()
		for _, ps := range systems {
			if _, err := core.SolveFor(ps.Sys, ps.Inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCacheWarm solves freshly rebuilt corpus systems against a
// pre-filled cache: the memoized path, canonicalization included.
func BenchmarkCacheWarm(b *testing.B) {
	b.ReportAllocs()
	opts := core.Options{Cache: solvecache.New(solvecache.Config{})}
	for _, ps := range corpusSystems(b) {
		if _, err := core.SolveFor(ps.Sys, ps.Inputs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		systems := corpusSystems(b)
		b.StartTimer()
		for _, ps := range systems {
			if _, err := core.SolveFor(ps.Sys, ps.Inputs, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
