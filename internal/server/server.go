// Package server is the fault-isolated solving service around the DPRLE
// decision procedure: a long-running HTTP/JSON front end in which every
// request is parsed, solved on a bounded worker pool under a
// policy-clamped resource budget, and answered with structured JSON.
//
// The engine's worst case is inherently exponential (determinization; the
// paper's `secure` benchmark took minutes on a few constraints), so
// robustness lives in this layer, not the solver:
//
//   - Panic isolation: a panic inside one request's solve is recovered at
//     the worker boundary and reported as a 500 with an incident ID; the
//     pool and every other request keep running.
//   - Admission control: a bounded queue in front of a bounded pool; when
//     the queue is full the request is shed immediately with 429 and
//     Retry-After instead of growing latency for everyone.
//   - Budget clamping: per-request deadlines and state/step caps are
//     honored but clamped to the server's configured ceilings, so no
//     client can demand an unbounded solve.
//   - Disconnect cancellation: a client that goes away cancels its solve
//     at the next budget checkpoint, freeing the worker.
//   - Graceful drain: Drain stops admission (readyz turns 503, new solves
//     get 503 + Retry-After), finishes in-flight requests within a
//     bounded timeout, then stops the workers.
//   - Caching and collapsing: complete (never degraded) responses are
//     memoized in a bounded solve cache also shared with the solver's
//     per-component memoization, and concurrent identical requests
//     collapse onto one solve. Every /solve response carries an
//     X-Dprle-Cache: hit|miss|collapsed header. See DESIGN.md §10.
//
// Endpoints: POST /solve, GET /healthz, GET /readyz, GET /statusz.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dprle/internal/solvecache"
)

// Config is the server policy. The zero value of each field selects the
// documented default; negative MaxStates/MaxSteps disable the cap.
type Config struct {
	// Workers is the solving concurrency: the number of pool goroutines.
	// Default: GOMAXPROCS, at least 2.
	Workers int
	// QueueDepth bounds the admission queue in front of the pool; a full
	// queue sheds load with 429. Default: 4×Workers.
	QueueDepth int
	// DefaultTimeout applies to requests that do not ask for a deadline.
	// Default: 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request deadline a client may request.
	// Default: 30s.
	MaxTimeout time.Duration
	// MaxStates / MaxSteps are the ceilings for the per-request solver
	// budget (see budget.Limits). Requests asking for more — or for
	// nothing — are clamped to the ceiling. 0 selects the defaults
	// (4Mi states, 1Mi steps); negative disables the cap.
	MaxStates int64
	MaxSteps  int64
	// MaxBodyBytes bounds the request body. Default: 1 MiB.
	MaxBodyBytes int64
	// DrainTimeout is the default bound for Run's drain on SIGTERM; Drain
	// callers pass their own context. Default: 10s.
	DrainTimeout time.Duration
	// CacheEntries bounds the solve cache (shared between whole-response
	// memoization and the solver's per-component cache). 0 selects the
	// solvecache default (4096 entries); negative disables caching
	// entirely. See DESIGN.md §10.
	CacheEntries int
	// CacheBytes bounds the accounted size of the solve cache. 0 selects
	// the solvecache default (64 MiB). Ignored when caching is disabled.
	CacheBytes int64
	// NoCollapse disables request collapsing: concurrent identical
	// requests each get their own solve instead of sharing one.
	NoCollapse bool
	// Logf receives incident reports (recovered panic stacks). Default:
	// discard; cmd/dprled wires it to its stderr logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	switch {
	case c.MaxStates == 0:
		c.MaxStates = 4 << 20
	case c.MaxStates < 0:
		c.MaxStates = 0 // unlimited
	}
	switch {
	case c.MaxSteps == 0:
		c.MaxSteps = 1 << 20
	case c.MaxSteps < 0:
		c.MaxSteps = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Drain states.
const (
	stateAccepting int32 = iota
	stateDraining
	stateDrained
)

func stateName(s int32) string {
	switch s {
	case stateAccepting:
		return "accepting"
	case stateDraining:
		return "draining"
	case stateDrained:
		return "drained"
	}
	return "unknown"
}

// Server is one dprled instance. Create it with New; it is ready to serve
// as soon as its Handler is mounted.
type Server struct {
	cfg  Config
	pool *pool
	mux  *http.ServeMux
	// cache memoizes complete (never degraded) solve responses and is
	// shared into core.Options.Cache so workers also reuse per-component
	// solutions across requests. nil when Config.CacheEntries < 0.
	cache *solvecache.Cache
	// flight collapses concurrent identical requests onto one solve. nil
	// when Config.NoCollapse.
	flight *solvecache.Flight
	state  atomic.Int32
	// inflight counts admitted requests (queued or solving) for /statusz;
	// wg tracks the same population for Drain.
	inflight atomic.Int64
	wg       sync.WaitGroup
	start    time.Time

	stats struct {
		requests    atomic.Int64
		sat         atomic.Int64
		unsat       atomic.Int64
		unknown     atomic.Int64
		exhausted   atomic.Int64
		shed        atomic.Int64
		panics      atomic.Int64
		parseErrors atomic.Int64
		canceled    atomic.Int64
		// cacheHits/cacheMisses count response-cache outcomes;
		// collapsed counts requests that shared another request's solve.
		cacheHits   atomic.Int64
		cacheMisses atomic.Int64
		collapsed   atomic.Int64
	}
}

// New builds a Server with the given policy and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), start: time.Now()}
	if s.cfg.CacheEntries >= 0 {
		s.cache = solvecache.New(solvecache.Config{
			MaxEntries: s.cfg.CacheEntries,
			MaxBytes:   s.cfg.CacheBytes,
		})
	}
	if !s.cfg.NoCollapse {
		s.flight = solvecache.NewFlight()
	}
	s.pool = newPool(s.cfg.Workers, s.cfg.QueueDepth, s.recordPanic)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Config reports the effective (defaulted) policy.
func (s *Server) Config() Config { return s.cfg }

// CacheStats snapshots the shared solve cache's counters (zero when
// caching is disabled).
func (s *Server) CacheStats() solvecache.Stats { return s.cache.Stats() }

// recordPanic is the pool's fault sink: it counts the incident and logs
// the stack under the incident ID the client received.
func (s *Server) recordPanic(incident string, val any, stack []byte) {
	s.stats.panics.Add(1)
	s.cfg.Logf("incident %s: recovered panic: %v\n%s", incident, val, stack)
}

// draining reports whether the server has left the accepting state.
func (s *Server) draining() bool { return s.state.Load() != stateAccepting }

// Drain runs the shutdown state machine: accepting → draining → drained.
// It stops admission (new solves and readyz turn 503), waits for every
// admitted request to finish, then stops the worker pool. The wait is
// bounded by ctx: on expiry Drain returns ctx.Err() with the pool still
// running its stragglers (their own deadlines will reap them).
//
// Drain is idempotent; concurrent calls all wait for the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.state.CompareAndSwap(stateAccepting, stateDraining)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.pool.close()
		s.state.Store(stateDrained)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
