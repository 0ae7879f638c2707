package solvecache

import (
	"errors"
	"sync"
)

// ErrLeaderPanicked is the outcome followers observe when the leader's
// computation panicked instead of finishing; the panic itself propagates on
// the leader's goroutine.
var ErrLeaderPanicked = errors.New("solvecache: flight leader panicked")

// Flight collapses concurrent duplicate work: callers Join a key, exactly
// one becomes the leader and computes, and every follower shares the
// leader's outcome. Unlike a cache, a Flight holds no history — a key lives
// only while its call is in flight. A nil *Flight disables collapsing:
// every Join leads.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*Call
}

// NewFlight returns an empty Flight.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*Call)}
}

// Call is one in-flight computation.
type Call struct {
	done chan struct{}
	val  any
	err  error
	// followers counts the Joins that shared this call, guarded by the
	// Flight's mu. It lets a test park every follower before releasing the
	// leader.
	followers int
}

// Done is closed when the leader finishes the call.
func (c *Call) Done() <-chan struct{} { return c.done }

// Result returns the call's outcome. It must only be read after Done is
// closed.
func (c *Call) Result() (any, error) { return c.val, c.err }

// Join returns the call in flight for key, creating it if absent. The
// caller that created the call is the leader (leader == true) and MUST
// resolve it with Finish, even on panic paths — an unfinished call blocks
// its followers forever. Followers wait on Done with whatever deadline
// discipline suits them.
func (f *Flight) Join(key string) (c *Call, leader bool) {
	if f == nil {
		return &Call{done: make(chan struct{})}, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		c.followers++
		return c, false
	}
	c = &Call{done: make(chan struct{})}
	f.calls[key] = c
	return c, true
}

// Finish resolves a call created by Join, removes the key from the flight,
// and wakes all followers. Only the leader may call it, exactly once.
func (f *Flight) Finish(key string, c *Call, val any, err error) {
	if f != nil {
		f.mu.Lock()
		if cur, ok := f.calls[key]; ok && cur == c {
			delete(f.calls, key)
		}
		f.mu.Unlock()
	}
	c.val, c.err = val, err
	close(c.done)
}

// Do runs fn under the flight: the leader executes it, followers block for
// the shared outcome. shared reports whether the result came from another
// caller's execution.
func (f *Flight) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	c, leader := f.Join(key)
	if leader {
		defer func() {
			if r := recover(); r != nil {
				f.Finish(key, c, nil, ErrLeaderPanicked)
				panic(r)
			}
		}()
		val, err = fn()
		f.Finish(key, c, val, err)
		return val, err, false
	}
	<-c.Done()
	val, err = c.Result()
	return val, err, true
}
