package experiments

// The Figure 12 corpus as constraint systems: the batch the hotpath
// corpus-solve row times and the corpus-wide solver tests replay.

import (
	"dprle/internal/cfg"
	"dprle/internal/corpus"
	"dprle/internal/lang"
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
