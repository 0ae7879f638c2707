package server

// Response caching and request collapsing. Two mechanisms share one key
// (the hash of the system source plus every request option):
//
//   - The response cache memoizes the marshaled body of complete answers.
//     Only HTTP 200 SolveResponses with no Degraded marker are stored —
//     a degraded or exhausted answer reflects the budget that produced
//     it, not the system, so replaying it for a later request would be
//     wrong. Complete answers are deterministic for a given request, so
//     replaying those is sound.
//
//   - The flight collapses concurrent identical requests: the first
//     becomes the leader and runs the normal admission + solve path;
//     followers wait (under their own deadline) and share the leader's
//     marshaled outcome without occupying a queue slot or worker.
//
// Every /solve response that got far enough to have a key carries an
// X-Dprle-Cache header: "hit" (served from the response cache), "miss"
// (this request ran the solve), or "collapsed" (shared another request's
// in-flight solve).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dprle/internal/solvecache"
)

// CacheHeader is the response header reporting how the answer was
// produced: "hit", "miss", or "collapsed".
const CacheHeader = "X-Dprle-Cache"

// CacheHeader values.
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCollapsed = "collapsed"
)

// errLeaderGone is the flight outcome when the leader's client
// disconnected before an answer existed: the shared solve died with it.
var errLeaderGone = errors.New("server: collapse leader abandoned the request")

// cachedResponse is a fully rendered answer: the HTTP status plus the
// marshaled JSON body, shared verbatim between the leader, its
// collapsed followers, and later cache hits.
type cachedResponse struct {
	status int
	body   []byte
}

// requestKey fingerprints a decoded request for caching and collapsing.
// The system source is hashed as text (the solver-level component cache
// below it handles structural equivalences); every option is included,
// TimeoutMS too — collapsing requests with different deadlines would let
// a short-deadline leader degrade a long-deadline follower's answer.
func requestKey(req *SolveRequest) string {
	o := req.Options
	return solvecache.Key("response", req.System,
		fmt.Sprintf("sols=%d states=%d steps=%d timeout=%d",
			o.MaxSolutions, o.MaxStates, o.MaxSteps, o.TimeoutMS))
}

// cacheable reports whether an answer may be memoized: only complete
// 200s — never degraded, exhausted, or error responses.
func cacheable(status int, body any) bool {
	if status != http.StatusOK {
		return false
	}
	sr, ok := body.(*SolveResponse)
	return ok && sr.Degraded == nil && !sr.Usage.Exhausted
}

// marshalBody renders a response body exactly as writeJSON would.
func marshalBody(body any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
	return buf.Bytes()
}

// writeCached writes a rendered answer, tagging it with how it was
// produced (empty how = caching disabled, no header).
func writeCached(w http.ResponseWriter, cr *cachedResponse, how string) {
	if how != "" {
		w.Header().Set(CacheHeader, how)
	}
	w.Header().Set("Content-Type", "application/json")
	if cr.status == http.StatusTooManyRequests || cr.status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.WriteHeader(cr.status)
	_, _ = w.Write(cr.body)
}

// collapse is the follower path: wait for the leader's outcome under this
// request's own deadline and share it. Followers are counted in-flight so
// Drain waits for them, but they hold no queue slot and no worker.
func (s *Server) collapse(w http.ResponseWriter, r *http.Request, req *SolveRequest, call *solvecache.Call) {
	s.stats.collapsed.Add(1)
	s.wg.Add(1)
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.wg.Done()
	}()
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.Options.TimeoutMS))
	defer cancel()
	select {
	case <-call.Done():
		if out, err := call.Result(); err == nil {
			writeCached(w, out.(*cachedResponse), CacheCollapsed)
			return
		}
		// The leader vanished without producing an answer (its client
		// disconnected). Nothing was proven; degrade to unknown rather
		// than re-running the solve outside admission control.
		s.stats.unknown.Add(1)
		w.Header().Set(CacheHeader, CacheCollapsed)
		writeJSON(w, http.StatusOK, &SolveResponse{
			Status:   StatusUnknown,
			Usage:    Usage{Exhausted: true},
			Degraded: &Degraded{Kind: "canceled", Stage: "server.collapse"},
		})
	case <-ctx.Done():
		if r.Context().Err() != nil {
			s.stats.canceled.Add(1)
			return
		}
		// Our deadline expired before the (longer-running) leader
		// finished: same answer an expired queued request gets.
		s.stats.unknown.Add(1)
		w.Header().Set(CacheHeader, CacheCollapsed)
		writeJSON(w, http.StatusOK, &SolveResponse{
			Status:   StatusUnknown,
			Usage:    Usage{Exhausted: true},
			Degraded: &Degraded{Kind: "deadline", Stage: "server.collapse"},
		})
	}
}
