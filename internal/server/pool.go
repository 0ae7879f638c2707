package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Admission failures submit can report.
var (
	errQueueFull  = errors.New("server: queue full")
	errPoolClosed = errors.New("server: pool closed")
)

// outcome is what a worker hands back to the waiting handler: an HTTP
// status and the response body to encode.
type outcome struct {
	status int
	body   any
}

// task is one admitted solve. The worker is the only sender on done (its
// capacity-1 buffer means delivery never blocks, even when the handler has
// already abandoned the request). leave and release are each called exactly
// once per admitted task, by the worker when it finishes, skips, or panics:
// leave just before the outcome is delivered, so the in-flight gauge never
// counts a request whose client already has its answer, and release after
// it, so a drain waits until every answer has been handed over.
type task struct {
	ctx     context.Context
	do      func(ctx context.Context) (int, any)
	done    chan outcome
	started atomic.Bool // set by the worker just before do runs
	leave   func()
	release func()
}

func (t *task) deliver(status int, body any) {
	t.leave()
	t.done <- outcome{status: status, body: body}
}

// pool is a bounded worker pool: Workers goroutines consuming a
// QueueDepth-buffered channel. The buffer is the admission queue — a full
// buffer means the server is saturated and submit refuses immediately, so
// load is shed at the door instead of piling up unbounded goroutines.
type pool struct {
	mu      sync.RWMutex // guards closed vs. send-on-closed-channel
	closed  bool
	tasks   chan *task
	wg      sync.WaitGroup
	onPanic func(incident string, val any, stack []byte)
}

func newPool(workers, depth int, onPanic func(incident string, val any, stack []byte)) *pool {
	p := &pool{
		tasks:   make(chan *task, depth),
		onPanic: onPanic,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// submit enqueues a task without blocking. It returns errQueueFull when the
// admission queue is at capacity and errPoolClosed after close.
func (p *pool) submit(t *task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.tasks <- t:
		return nil
	default:
		return errQueueFull
	}
}

// close stops admission and waits for the workers to drain the queue and
// exit. Tasks still queued are run (or skipped, if their context died);
// their releases all fire before close returns.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *pool) queueLen() int { return len(p.tasks) }
func (p *pool) queueCap() int { return cap(p.tasks) }

func (p *pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.runTask(t)
	}
}

// runTask executes one task under the pool's fault boundary. A panic
// anywhere in the solve is recovered here: the panicking request gets a
// 500 with an incident ID, the worker goroutine survives, and every other
// request is untouched — the per-request fault isolation the service is
// built around.
func (p *pool) runTask(t *task) {
	defer t.release()
	defer func() {
		if r := recover(); r != nil {
			id := newIncidentID()
			p.onPanic(id, r, debug.Stack())
			t.deliver(http.StatusInternalServerError, &ErrorResponse{
				Error:      "internal error; the failure was isolated to this request",
				Code:       CodeInternal,
				IncidentID: id,
			})
		}
	}()
	// A request whose context died while queued (client disconnected, or
	// the deadline passed before a worker freed up) is skipped: the solve
	// would only burn a worker on an answer nobody can use.
	if err := t.ctx.Err(); err != nil {
		kind := "canceled"
		if errors.Is(err, context.DeadlineExceeded) {
			kind = "deadline"
		}
		t.deliver(http.StatusOK, &SolveResponse{
			Status:   StatusUnknown,
			Usage:    Usage{Exhausted: true},
			Degraded: &Degraded{Kind: kind, Stage: "server.queue"},
		})
		return
	}
	t.started.Store(true)
	status, body := t.do(t.ctx)
	t.deliver(status, body)
}
