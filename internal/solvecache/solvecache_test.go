package solvecache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dprle/internal/nfa"
)

func TestCacheLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: -1})
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", 3, 1) // evicts b: a was touched more recently
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestCacheByteBudget(t *testing.T) {
	c := New(Config{MaxEntries: -1, MaxBytes: 100})
	c.Put("a", "x", 60)
	c.Put("b", "y", 60) // 120 > 100: evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte budget not enforced")
	}
	if st := c.Stats(); st.Bytes != 60 {
		t.Fatalf("bytes = %d, want 60", st.Bytes)
	}
	// A value larger than the whole budget is refused outright.
	c.Put("huge", "z", 200)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("over-budget value was stored")
	}
}

func TestCacheReplaceAccountsCost(t *testing.T) {
	c := New(Config{MaxEntries: 10, MaxBytes: 100})
	c.Put("a", "v1", 30)
	c.Put("a", "v2", 50)
	st := c.Stats()
	if st.Bytes != 50 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want bytes 50, entries 1", st)
	}
	v, ok := c.Get("a")
	if !ok || v.(string) != "v2" {
		t.Fatalf("Get = %v, %v; want v2", v, ok)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestKeyInjective(t *testing.T) {
	// Part boundaries must matter: ("ab","c") ≠ ("a","bc") ≠ ("abc").
	keys := map[string]bool{
		Key("d", "ab", "c"): true,
		Key("d", "a", "bc"): true,
		Key("d", "abc"):     true,
		Key("e", "ab", "c"): true, // domain separation
	}
	if len(keys) != 4 {
		t.Fatalf("key collisions: got %d distinct keys, want 4", len(keys))
	}
	if Key("d", "a") != Key("d", "a") {
		t.Fatal("Key is not deterministic")
	}
}

func TestFlightCollapses(t *testing.T) {
	f := NewFlight()
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := f.Do("k", func() (any, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Park all n-1 followers behind the leader, then release it. A
	// follower that joined only after Finish would lead a fresh call.
	for {
		f.mu.Lock()
		c := f.calls["k"]
		parked := c != nil && c.followers == n-1
		f.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared = %d, want %d", got, n-1)
	}
	// The key is gone: the next Do runs fresh.
	_, _, shared := f.Do("k", func() (any, error) { return 1, nil })
	if shared {
		t.Fatal("finished key still collapsing")
	}
}

func TestFlightDistinctKeysDoNotCollapse(t *testing.T) {
	f := NewFlight()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = f.Do(key, func() (any, error) { calls.Add(1); return nil, nil })
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("fn executed %d times, want 4", got)
	}
}

func TestFlightLeaderPanicWakesFollowers(t *testing.T) {
	f := NewFlight()
	c, leader := f.Join("k")
	if !leader {
		t.Fatal("first Join should lead")
	}
	done := make(chan error, 1)
	joined := make(chan struct{})
	go func() {
		fc, fl := f.Join("k")
		close(joined)
		if fl {
			done <- fmt.Errorf("follower became leader")
			return
		}
		<-fc.Done()
		_, err := fc.Result()
		done <- err
	}()
	<-joined
	func() {
		defer func() { _ = recover() }()
		defer func() {
			if r := recover(); r != nil {
				f.Finish("k", c, nil, ErrLeaderPanicked)
				panic(r)
			}
		}()
		panic("boom")
	}()
	if err := <-done; err != ErrLeaderPanicked {
		t.Fatalf("follower saw %v, want ErrLeaderPanicked", err)
	}
}

func TestNilFlightRunsEverything(t *testing.T) {
	var f *Flight
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		_, _, shared := f.Do("k", func() (any, error) { calls.Add(1); return nil, nil })
		if shared {
			t.Fatal("nil flight reported a shared result")
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestInternerDedups(t *testing.T) {
	c := New(Config{})
	in := NewInterner(c)
	a, keyA := in.Intern(nfa.Literal("ab"))
	b, keyB := in.Intern(nfa.Literal("ab"))
	if keyA != keyB {
		t.Fatal("identical machines got different canonical keys")
	}
	if a != b {
		t.Fatal("identical machines were not interned to one representative")
	}
	d, keyD := in.Intern(nfa.Literal("cd"))
	if d == a || keyD == keyA {
		t.Fatal("distinct machines were conflated")
	}
	// Inert interner passes machines through.
	m := nfa.Literal("x")
	got, _ := NewInterner(nil).Intern(m)
	if got != m {
		t.Fatal("inert interner did not return its input")
	}
}
