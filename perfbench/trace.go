package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Op; Parent is the ID of
// the enclosing span, or -1 for a root.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Alloc  uint64           `json:"alloc_bytes,omitempty"`
	Tag    string           `json:"tag,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`

	allocAtStart uint64
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; allocation deltas are only meaningful when one
// goroutine does all the traced work, so they are opt-in. A nil tracer
// records nothing, so untraced code paths can share the traced ones.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	allocs bool
	sample []metrics.Sample
	spans  []span
}

func newTracer(allocs bool) *tracer {
	return &tracer{
		t0:     time.Now(),
		allocs: allocs,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs reads the cumulative heap allocation counter (the runtime
// metric behind MemStats.TotalAlloc) without stopping the world. Callers
// hold mu.
func (tr *tracer) heapAllocs() uint64 {
	metrics.Read(tr.sample)
	return tr.sample[0].Value.Uint64()
}

// start opens a span and returns its ID.
func (tr *tracer) start(op, parent int, name string) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := span{ID: len(tr.spans), Parent: parent, Op: op, Name: name}
	if tr.allocs {
		s.allocAtStart = tr.heapAllocs()
	}
	s.Start = int64(time.Since(tr.t0))
	tr.spans = append(tr.spans, s)
	return s.ID
}

// finish closes a span.
func (tr *tracer) finish(id int) {
	if tr == nil {
		return
	}
	end := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	s.End = end
	if tr.allocs {
		s.Alloc = tr.heapAllocs() - s.allocAtStart
	}
}

// count attaches a counter to a span.
func (tr *tracer) count(id int, key string, v int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += v
}

// tag labels a span (dprled: the X-Dprle-Cache outcome).
func (tr *tracer) tag(id int, v string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].Tag = v
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: every traced op runs on one
// goroutine.
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// layerSums adds up, per span name, self time, allocated bytes and the
// span counters.
type layerSums struct {
	self   map[string]time.Duration
	alloc  map[string]uint64
	counts map[string]int64 // keyed "<span name>/<counter>"
}

func (tr *tracer) sums() layerSums {
	self := tr.selfTimes()
	ls := layerSums{self: map[string]time.Duration{}, alloc: map[string]uint64{}, counts: map[string]int64{}}
	for i, s := range tr.spans {
		ls.self[s.Name] += self[i]
		ls.alloc[s.Name] += s.Alloc
		for k, v := range s.Counts {
			ls.counts[s.Name+"/"+k] += v
		}
	}
	return ls
}

// perOpMillis is a span name's total self time per op, in milliseconds.
func (ls layerSums) perOpMillis(name string, ops int) float64 {
	return float64(ls.self[name]) / float64(time.Millisecond) / float64(ops)
}

// perOpMB is a span name's allocation per op, in MB.
func (ls layerSums) perOpMB(name string, ops int) float64 {
	return float64(ls.alloc[name]) / (1 << 20) / float64(ops)
}

// perOp is a span counter's total per op.
func (ls layerSums) perOp(key string, ops int) float64 {
	return float64(ls.counts[key]) / float64(ops)
}

// write stores the spans as JSON lines, one span per line.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the spans and reports the tracing overhead: the
// traced phase's median op latency over the untraced phase's, both
// measured in this run.
func finishTrace(cfg config, tr *tracer, r *report, untraced, traced []time.Duration) error {
	path, err := tr.write(traceDir, cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "  wrote %d spans to %s\n", len(tr.spans), path)
	u, t := median(millis(untraced)), median(millis(traced))
	r.set("trace.overhead_pct", (t/u-1)*100, len(traced),
		fmt.Sprintf("traced p50 %.4f ms (n=%d) vs untraced %.4f ms (n=%d)", t, len(traced), u, len(untraced)))
	return nil
}
