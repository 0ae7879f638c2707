package experiments

// The solve-cache experiment: extract every constraint system of the
// Figure 12 corpus, solve the whole batch cold (empty cache) and then warm
// (every component memoized), and report the timings plus the cache and
// request-collapsing counters. cmd/benchtab renders the report with
// -table cache and emits it machine-readably as BENCH_cache.json.

import (
	"fmt"
	"sync"
	"time"

	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/corpus"
	"dprle/internal/lang"
	"dprle/internal/solvecache"
	"dprle/internal/symexec"
)

// CorpusSystems symbolically executes every defect of the Figure 12 corpus
// and returns the constraint system of each path that reaches a sink with
// attacker-controlled data — the realistic query mix a long-running solver
// service sees. Each call rebuilds the systems from scratch, so callers can
// solve a batch repeatedly without sharing machine state between runs.
func CorpusSystems(skipBig bool) ([]*symexec.PathSystem, error) {
	var systems []*symexec.PathSystem
	for _, d := range corpus.Defects() {
		if skipBig && d.Big {
			continue
		}
		ds, err := defectSystems(d)
		if err != nil {
			return nil, err
		}
		systems = append(systems, ds...)
	}
	return systems, nil
}

// defectSystems returns the constraint systems of one defect's paths to a
// sink that read attacker-controlled data.
func defectSystems(d corpus.Defect) ([]*symexec.PathSystem, error) {
	cfgc := symexec.DefaultConfig()
	src, err := corpus.Source(d)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(d.Name+".php", src)
	if err != nil {
		return nil, err
	}
	var systems []*symexec.PathSystem
	for _, p := range cfg.PathsToSinks(prog, cfgc.MaxPaths) {
		pol := cfgc.SQL
		if p.Kind == cfg.SinkXSS {
			pol = cfgc.XSS
		}
		ps, err := symexec.ForPath(p, pol)
		if err != nil {
			return nil, err
		}
		if len(ps.Inputs) == 0 {
			continue
		}
		systems = append(systems, ps)
	}
	return systems, nil
}

// CacheReport is the measured outcome of the cache experiment.
type CacheReport struct {
	// Systems is the number of corpus constraint systems per pass.
	Systems int `json:"systems"`
	// ColdNS is the total solve time of the batch with caching disabled,
	// FillNS the time of the pass that populates a fresh cache (already
	// faster than cold: the corpus repeats components within one pass),
	// and WarmNS the time of a pass answered from the populated cache.
	// All in nanoseconds.
	ColdNS int64 `json:"cold_ns"`
	FillNS int64 `json:"fill_ns"`
	WarmNS int64 `json:"warm_ns"`
	// Speedup is ColdNS/WarmNS.
	Speedup float64 `json:"speedup"`
	// Cache snapshots the shared cache counters after both passes.
	Cache solvecache.Stats `json:"cache"`
	// FlightCalls/FlightShared/FlightSolves report the request-collapsing
	// demo: FlightCalls concurrent identical solves were issued, of which
	// FlightSolves actually executed and FlightShared rode along.
	FlightCalls  int `json:"flight_calls"`
	FlightShared int `json:"flight_shared"`
	FlightSolves int `json:"flight_solves"`
}

// solveCorpus rebuilds the corpus systems and solves each for its input
// variables under the shared cache, timing only the solves.
func solveCorpus(opts core.Options, skipBig bool, cache *solvecache.Cache) (time.Duration, int, error) {
	systems, err := CorpusSystems(skipBig)
	if err != nil {
		return 0, 0, err
	}
	opts.Cache = cache
	start := time.Now()
	for _, ps := range systems {
		if _, err := core.SolveFor(ps.Sys, ps.Inputs, opts); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", ps.Sink.Kind, err)
		}
	}
	return time.Since(start), len(systems), nil
}

// CacheExperiment measures the memoized solve path on the Figure 12
// corpus: a cold pass solves the whole batch with caching disabled, a fill
// pass populates a fresh cache, and a warm pass over freshly rebuilt
// (structurally identical) systems is answered almost entirely from it.
// The reported speedup is cold over warm. A final collapsing demo joins 8
// identical requests on one Flight and counts how many actually executed.
func CacheExperiment(opts core.Options, skipBig bool) (CacheReport, error) {
	// Each measured pass is best-of-N: single passes over this corpus run
	// ~10 ms warm, where GC pauses and scheduler noise dominate a single
	// sample. The minimum is the honest estimate of the work itself.
	best := func(passes int, cache *solvecache.Cache) (time.Duration, int, error) {
		var min time.Duration
		var n int
		for i := 0; i < passes; i++ {
			d, count, err := solveCorpus(opts, skipBig, cache)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || d < min {
				min = d
			}
			n = count
		}
		return min, n, nil
	}
	cold, n, err := best(2, nil)
	if err != nil {
		return CacheReport{}, err
	}
	cache := solvecache.New(solvecache.Config{})
	fill, _, err := solveCorpus(opts, skipBig, cache)
	if err != nil {
		return CacheReport{}, err
	}
	warm, _, err := best(5, cache)
	if err != nil {
		return CacheReport{}, err
	}
	rep := CacheReport{
		Systems: n,
		ColdNS:  cold.Nanoseconds(),
		FillNS:  fill.Nanoseconds(),
		WarmNS:  warm.Nanoseconds(),
		Cache:   cache.Stats(),
	}
	if rep.WarmNS > 0 {
		rep.Speedup = float64(rep.ColdNS) / float64(rep.WarmNS)
	}

	// Collapsing demo: 8 identical requests join one flight — deliberately
	// sequenced (join all, then the leader solves and finishes) so the
	// counts are deterministic rather than scheduler-dependent.
	systems, err := CorpusSystems(skipBig)
	if err != nil {
		return CacheReport{}, err
	}
	if len(systems) > 0 {
		flight := solvecache.NewFlight()
		ps := systems[0]
		const calls = 8
		rep.FlightCalls = calls
		type joined struct {
			call   *solvecache.Call
			leader bool
		}
		js := make([]joined, calls)
		for i := range js {
			c, leader := flight.Join("corpus-demo")
			js[i] = joined{c, leader}
		}
		var wg sync.WaitGroup
		for _, j := range js {
			if !j.leader {
				continue
			}
			rep.FlightSolves++
			wg.Add(1)
			go func(c *solvecache.Call) {
				defer wg.Done()
				res, err := core.SolveFor(ps.Sys, ps.Inputs, opts)
				flight.Finish("corpus-demo", c, res, err)
			}(j.call)
		}
		for _, j := range js {
			if j.leader {
				continue
			}
			<-j.call.Done()
			if _, err := j.call.Result(); err == nil {
				rep.FlightShared++
			}
		}
		wg.Wait()
	}
	return rep, nil
}

// FormatCache renders the cache experiment report.
func FormatCache(rep CacheReport) string {
	return fmt.Sprintf(`Solve cache — fig12 corpus, cold vs. warm
  systems per pass        %d
  cold pass (uncached)    %.3fs
  fill pass               %.3fs
  warm pass (memoized)    %.3fs
  speedup (cold/warm)     %.1fx
  cache                   hits=%d misses=%d puts=%d evictions=%d entries=%d bytes=%d
  collapsing              %d identical concurrent solves -> %d executed, %d shared
`,
		rep.Systems,
		time.Duration(rep.ColdNS).Seconds(),
		time.Duration(rep.FillNS).Seconds(),
		time.Duration(rep.WarmNS).Seconds(),
		rep.Speedup,
		rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Puts, rep.Cache.Evictions,
		rep.Cache.Entries, rep.Cache.Bytes,
		rep.FlightCalls, rep.FlightSolves, rep.FlightShared)
}
