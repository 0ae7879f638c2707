package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"dprle/internal/budget"
	"dprle/internal/core"
	"dprle/internal/solvecache"
	"dprle/internal/textio"
)

// handleSolve is the admission path: reject while draining, bound the
// body, decode, count the request in-flight, and hand the parse+solve to
// the pool. The handler goroutine only waits and writes — all
// attacker-priced work (parsing the constraint system, solving it) runs
// on pool workers, so concurrency stays bounded no matter how many
// connections arrive.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	if s.draining() {
		s.writeDraining(w)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, &ErrorResponse{
			Error: fmt.Sprintf("reading request body: %v", err),
			Code:  CodeBadRequest,
		})
		return
	}
	req, errResp := decodeRequest(r.Header.Get("Content-Type"), body)
	if errResp != nil {
		writeJSON(w, http.StatusBadRequest, errResp)
		return
	}

	// Cache, then collapse: a hit answers without touching the pool; a
	// concurrent duplicate shares the in-flight leader's answer.
	key := ""
	if s.cache != nil || s.flight != nil {
		key = requestKey(req)
	}
	if s.cache != nil {
		if v, ok := s.cache.Get(key); ok {
			s.stats.cacheHits.Add(1)
			writeCached(w, v.(*cachedResponse), CacheHit)
			return
		}
		s.stats.cacheMisses.Add(1)
	}
	var call *solvecache.Call
	leader := true
	if s.flight != nil {
		call, leader = s.flight.Join(key)
	}
	if !leader {
		s.collapse(w, r, req, call)
		return
	}
	// This request leads its flight: every exit below must resolve the
	// call, or followers would hang until their own deadlines.
	finished := false
	finish := func(out *cachedResponse) {
		if finished || s.flight == nil {
			return
		}
		finished = true
		if out == nil {
			s.flight.Finish(key, call, nil, errLeaderGone)
			return
		}
		s.flight.Finish(key, call, out, nil)
	}
	defer func() { finish(nil) }()
	how := CacheMiss
	if key == "" {
		how = ""
	}
	// answer renders once, memoizes complete 200s, wakes followers, and
	// writes — the single exit for every answered leader path.
	answer := func(status int, body any) {
		out := &cachedResponse{status: status, body: marshalBody(body)}
		if s.cache != nil && cacheable(status, body) {
			s.cache.Put(key, out, int64(len(out.body)+len(key)))
		}
		finish(out)
		writeCached(w, out, how)
	}

	// Admit: count in-flight first, then re-check the drain state so a
	// Drain that raced us either sees our wg.Add or we see its state flip.
	// An admitted task's worker calls leave and release; the admission
	// failures below, before the task is ever submitted, call both here.
	s.wg.Add(1)
	s.inflight.Add(1)
	leave := func() { s.inflight.Add(-1) }
	if s.draining() {
		leave()
		s.wg.Done()
		answer(http.StatusServiceUnavailable, drainingBody())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.Options.TimeoutMS))
	defer cancel()
	t := &task{
		ctx:     ctx,
		done:    make(chan outcome, 1),
		leave:   leave,
		release: s.wg.Done,
		do: func(ctx context.Context) (int, any) {
			return s.solve(ctx, req)
		},
	}
	if err := s.pool.submit(t); err != nil {
		leave()
		s.wg.Done()
		if errors.Is(err, errPoolClosed) {
			answer(http.StatusServiceUnavailable, drainingBody())
			return
		}
		s.stats.shed.Add(1)
		answer(http.StatusTooManyRequests, &ErrorResponse{
			Error:             "solver queue is full; retry with backoff",
			Code:              CodeQueueFull,
			RetryAfterSeconds: 1,
		})
		return
	}

	select {
	case out := <-t.done:
		answer(out.status, out.body)
	case <-ctx.Done():
		if r.Context().Err() != nil {
			// Client disconnected: nothing to write. The worker observes
			// the dead context (skipping the solve, or unwinding it at the
			// next budget checkpoint) and releases the in-flight count.
			// The deferred finish(nil) tells any followers the solve died.
			s.stats.canceled.Add(1)
			return
		}
		if t.started.Load() {
			// The solve is running under this same (now expired) context:
			// the budget trips at the next checkpoint, so the worker's
			// verified partial result arrives shortly. Prefer it over a
			// generic timeout answer.
			out := <-t.done
			answer(out.status, out.body)
			return
		}
		// Deadline passed while still queued: answer now; the worker will
		// skip the task when it reaches it.
		s.stats.unknown.Add(1)
		answer(http.StatusOK, &SolveResponse{
			Status:   StatusUnknown,
			Usage:    Usage{Exhausted: true},
			Degraded: &Degraded{Kind: "deadline", Stage: "server.queue"},
		})
	}
}

// solve runs on a pool worker: parse, clamp, solve, classify.
func (s *Server) solve(ctx context.Context, req *SolveRequest) (int, any) {
	sys, err := textio.Parse(req.System)
	if err != nil {
		s.stats.parseErrors.Add(1)
		return http.StatusBadRequest, &ErrorResponse{Error: err.Error(), Code: CodeParseError}
	}
	opts := core.Options{
		MaxSolutions: req.Options.MaxSolutions,
		Cache:        s.cache,
		Limits: budget.Limits{
			MaxStates: clampLimit(req.Options.MaxStates, s.cfg.MaxStates),
			MaxSteps:  clampLimit(req.Options.MaxSteps, s.cfg.MaxSteps),
		},
	}
	res, solveErr := core.SolveCtx(ctx, sys, opts)
	if solveErr != nil {
		var ex *budget.Exhausted
		if !errors.As(solveErr, &ex) {
			// Structural or internal failure that was not a budget trip.
			// Same contract as an isolated panic: 500 with an incident ID,
			// details only in the server log.
			id := newIncidentID()
			s.stats.panics.Add(1)
			s.cfg.Logf("incident %s: internal solver error: %v", id, solveErr)
			return http.StatusInternalServerError, &ErrorResponse{
				Error:      "internal solver error; the failure was isolated to this request",
				Code:       CodeInternal,
				IncidentID: id,
			}
		}
		s.stats.exhausted.Add(1)
		resp := buildSolveResponse(sys, res)
		resp.Degraded = &Degraded{Kind: string(ex.Kind), Stage: ex.Stage}
		if resp.Status == StatusUnsat {
			// An exhausted empty result proves nothing.
			resp.Status = StatusUnknown
		}
		s.countStatus(resp.Status)
		return http.StatusOK, resp
	}
	resp := buildSolveResponse(sys, res)
	s.countStatus(resp.Status)
	return http.StatusOK, resp
}

func (s *Server) countStatus(status string) {
	switch status {
	case StatusSat:
		s.stats.sat.Add(1)
	case StatusUnsat:
		s.stats.unsat.Add(1)
	default:
		s.stats.unknown.Add(1)
	}
}

// buildSolveResponse renders a solver result: per assignment, each
// variable's shortest witness and machine size.
func buildSolveResponse(sys *core.System, res *core.Result) *SolveResponse {
	resp := &SolveResponse{
		Truncated: res.Truncated,
		Usage:     Usage{States: res.Usage.States, Steps: res.Usage.Steps, Exhausted: res.Usage.Exhausted},
	}
	if !res.Sat() {
		resp.Status = StatusUnsat
		return resp
	}
	resp.Status = StatusSat
	for _, a := range res.Assignments {
		m := map[string]VarSolution{}
		for _, v := range sys.Vars() {
			lang := a.Lookup(v)
			if w, ok := lang.ShortestWitness(); ok {
				m[v] = VarSolution{Witness: w, States: lang.NumStates()}
			}
		}
		resp.Assignments = append(resp.Assignments, m)
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, stateName(s.state.Load()))
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &StatusResponse{
		State:         stateName(s.state.Load()),
		Workers:       s.cfg.Workers,
		QueueLen:      s.pool.queueLen(),
		QueueCap:      s.pool.queueCap(),
		InFlight:      s.inflight.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.stats.requests.Load(),
		Sat:           s.stats.sat.Load(),
		Unsat:         s.stats.unsat.Load(),
		Unknown:       s.stats.unknown.Load(),
		Exhausted:     s.stats.exhausted.Load(),
		Shed:          s.stats.shed.Load(),
		Panics:        s.stats.panics.Load(),
		ParseErrors:   s.stats.parseErrors.Load(),
		Canceled:      s.stats.canceled.Load(),
		CacheHits:     s.stats.cacheHits.Load(),
		CacheMisses:   s.stats.cacheMisses.Load(),
		Collapsed:     s.stats.collapsed.Load(),
		Cache:         s.cache.Stats(),
	})
}

func drainingBody() *ErrorResponse {
	return &ErrorResponse{
		Error:             "server is draining",
		Code:              CodeDraining,
		RetryAfterSeconds: 1,
	}
}

func (s *Server) writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, drainingBody())
}

// requestTimeout resolves the per-request deadline: the client's ask,
// defaulted and clamped by server policy.
func (s *Server) requestTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// clampLimit resolves a requested resource cap against the server
// ceiling: no ask (or an ask beyond the ceiling) gets the ceiling; a
// ceiling of 0 means the server imposes none and the ask passes through.
func clampLimit(req, ceiling int64) int64 {
	if ceiling <= 0 {
		if req < 0 {
			return 0
		}
		return req
	}
	if req <= 0 || req > ceiling {
		return ceiling
	}
	return req
}

// decodeRequest turns the body into a SolveRequest: JSON when declared,
// raw textio source otherwise.
func decodeRequest(contentType string, body []byte) (*SolveRequest, *ErrorResponse) {
	mt := ""
	if contentType != "" {
		var err error
		mt, _, err = mime.ParseMediaType(contentType)
		if err != nil {
			return nil, &ErrorResponse{Error: fmt.Sprintf("bad Content-Type: %v", err), Code: CodeBadRequest}
		}
	}
	if mt != "application/json" {
		return &SolveRequest{System: string(body)}, nil
	}
	var req SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &ErrorResponse{Error: fmt.Sprintf("decoding request: %v", err), Code: CodeBadRequest}
	}
	o := req.Options
	if o.MaxSolutions < 0 || o.MaxStates < 0 || o.MaxSteps < 0 || o.TimeoutMS < 0 {
		return nil, &ErrorResponse{Error: "options must be non-negative", Code: CodeBadRequest}
	}
	return &req, nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", strconv.Itoa(1))
		}
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
