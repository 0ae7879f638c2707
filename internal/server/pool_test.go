package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkGoroutines polls until the goroutine count returns to the baseline
// or the deadline passes — the leak detector for every pool test.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolTaskMatrix drives the worker pool directly with a concurrent mix
// of well-behaved, panicking, slow-then-cancelled, and pre-cancelled tasks,
// and asserts the pool invariants: every task's leave and release fire
// exactly once, every done channel receives exactly one outcome, leave fires
// before that outcome is delivered, and no goroutine outlives the pool. Run
// under -race this also proves the admission path is data-race free.
func TestPoolTaskMatrix(t *testing.T) {
	before := runtime.NumGoroutine()
	var panics atomic.Int64
	p := newPool(4, 64, func(incident string, val any, stack []byte) {
		panics.Add(1)
		if incident == "" || len(stack) == 0 {
			t.Errorf("panic sink got incident=%q stack len %d", incident, len(stack))
		}
	})

	const perKind = 16
	kinds := []string{"ok", "panic", "cancel", "precancelled"}
	var leaves, releases atomic.Int64
	var wg sync.WaitGroup
	outcomes := make(chan struct {
		kind string
		out  outcome
	}, perKind*len(kinds))

	for _, kind := range kinds {
		for i := 0; i < perKind; i++ {
			kind := kind
			ctx, cancel := context.WithCancel(context.Background())
			if kind == "precancelled" {
				cancel()
			} else {
				defer cancel()
			}
			tk := &task{
				ctx:     ctx,
				done:    make(chan outcome, 1),
				release: func() { releases.Add(1) },
			}
			tk.leave = func() {
				if len(tk.done) != 0 {
					t.Errorf("task (%s) left the in-flight gauge after its outcome was delivered", kind)
				}
				leaves.Add(1)
			}
			switch kind {
			case "ok":
				tk.do = func(ctx context.Context) (int, any) {
					return http.StatusOK, &SolveResponse{Status: StatusSat}
				}
			case "panic":
				tk.do = func(ctx context.Context) (int, any) {
					panic(fmt.Sprintf("injected task panic %d", i))
				}
			case "cancel":
				// Cancel mid-solve: the do observes ctx like the budget does.
				tk.do = func(ctx context.Context) (int, any) {
					cancel()
					<-ctx.Done()
					return http.StatusOK, &SolveResponse{Status: StatusUnknown, Degraded: &Degraded{Kind: "canceled", Stage: "test"}}
				}
			case "precancelled":
				tk.do = func(ctx context.Context) (int, any) {
					t.Error("do ran for a pre-cancelled task; worker should skip it")
					return http.StatusOK, nil
				}
			}
			if err := p.submit(tk); err != nil {
				t.Fatalf("submit(%s): %v", kind, err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				select {
				case out := <-tk.done:
					outcomes <- struct {
						kind string
						out  outcome
					}{kind, out}
				case <-time.After(30 * time.Second):
					t.Errorf("task (%s) never delivered an outcome", kind)
				}
			}()
		}
	}
	wg.Wait()
	close(outcomes)

	counts := map[string]int{}
	for o := range outcomes {
		counts[o.kind]++
		switch o.kind {
		case "ok":
			if o.out.status != http.StatusOK {
				t.Errorf("ok task status = %d", o.out.status)
			}
		case "panic":
			if o.out.status != http.StatusInternalServerError {
				t.Errorf("panic task status = %d, want 500", o.out.status)
			}
			er, ok := o.out.body.(*ErrorResponse)
			if !ok || er.IncidentID == "" || er.Code != CodeInternal {
				t.Errorf("panic task body = %#v, want internal error with incident ID", o.out.body)
			}
		case "precancelled":
			sr, ok := o.out.body.(*SolveResponse)
			if !ok || sr.Status != StatusUnknown || sr.Degraded == nil {
				t.Errorf("precancelled task body = %#v, want degraded unknown", o.out.body)
			}
		}
	}
	for _, kind := range kinds {
		if counts[kind] != perKind {
			t.Errorf("%s outcomes = %d, want %d", kind, counts[kind], perKind)
		}
	}
	if got := panics.Load(); got != perKind {
		t.Errorf("panic sink fired %d times, want %d", got, perKind)
	}
	if got := releases.Load(); got != int64(perKind*len(kinds)) {
		t.Errorf("releases = %d, want %d (exactly once per task)", got, perKind*len(kinds))
	}
	if got := leaves.Load(); got != int64(perKind*len(kinds)) {
		t.Errorf("leaves = %d, want %d (exactly once per task)", got, perKind*len(kinds))
	}

	// The pool must survive all of it: a fresh task still runs.
	probe := &task{ctx: context.Background(), done: make(chan outcome, 1), leave: func() {}, release: func() {}}
	probe.do = func(ctx context.Context) (int, any) { return http.StatusOK, nil }
	if err := p.submit(probe); err != nil {
		t.Fatalf("pool dead after matrix: %v", err)
	}
	select {
	case out := <-probe.done:
		if out.status != http.StatusOK {
			t.Errorf("probe status = %d", out.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe after matrix never completed")
	}

	p.close()
	checkGoroutines(t, before)
}

func TestPoolQueueFullShedsImmediately(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newPool(1, 1, func(string, any, []byte) {})
	block := make(chan struct{})
	mk := func() *task {
		tk := &task{ctx: context.Background(), done: make(chan outcome, 1), leave: func() {}, release: func() {}}
		tk.do = func(ctx context.Context) (int, any) {
			<-block
			return http.StatusOK, nil
		}
		return tk
	}
	// One task occupies the worker, one fills the queue slot.
	running, queued := mk(), mk()
	if err := p.submit(running); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has picked up the first task so the queue slot
	// is genuinely free for the second.
	deadline := time.Now().Add(10 * time.Second)
	for !running.started.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the first task")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.submit(queued); err != nil {
		t.Fatal(err)
	}
	if err := p.submit(mk()); err != errQueueFull {
		t.Fatalf("submit on full queue = %v, want errQueueFull", err)
	}
	close(block)
	<-running.done
	<-queued.done
	p.close()
	checkGoroutines(t, before)
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := newPool(1, 1, func(string, any, []byte) {})
	p.close()
	tk := &task{ctx: context.Background(), done: make(chan outcome, 1), leave: func() {}, release: func() {}}
	if err := p.submit(tk); err != errPoolClosed {
		t.Fatalf("submit after close = %v, want errPoolClosed", err)
	}
	// close is idempotent.
	p.close()
}

// TestHTTPLoadShedding saturates a 1-worker, 1-slot server with slow solves
// and checks the overflow is answered 429 + Retry-After instead of queueing.
func TestHTTPLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	// Baseline after the pool and httptest listener are up: the leak check
	// covers the per-request goroutines, not the long-lived plumbing.
	before := runtime.NumGoroutine()
	const n = 12
	var codes [n]int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A unique comment per request keeps collapsing out of the
			// picture (identical bodies would share one solve and never
			// overflow the queue — that dedup is tested elsewhere).
			body, _ := json.Marshal(&SolveRequest{
				System:  fmt.Sprintf("# req %d\n%s", i, bombSource),
				Options: RequestOptions{TimeoutMS: 400},
			})
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without Retry-After")
				}
				var er ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Code != CodeQueueFull {
					t.Errorf("429 body = %+v (err %v), want code %q", er, err, CodeQueueFull)
				}
			}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Error("no requests were shed on a saturated 1-worker/1-slot server")
	}
	if ok == 0 {
		t.Error("no requests were served at all")
	}
	if got := s.stats.shed.Load(); got != int64(shed) {
		t.Errorf("shed counter = %d, observed %d 429s", got, shed)
	}
	// All in-flight work finishes (their 400ms deadlines reap the solves).
	deadline := time.Now().Add(30 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d", s.inflight.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	checkGoroutines(t, before)
}
