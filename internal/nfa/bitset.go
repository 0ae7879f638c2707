package nfa

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// stateSet is a bitset over machine state ids: state s lives at bit s&63 of
// word s>>6. Word-at-a-time union and emptiness are what let the subset
// construction and the reachability kernels run at memory speed; the earlier
// []bool representation walked one state per loop iteration.
type stateSet []uint64

// newStateSet returns an empty set with capacity for numStates states.
func newStateSet(numStates int) stateSet {
	return make(stateSet, (numStates+63)>>6)
}

func (s stateSet) add(i int)           { s[i>>6] |= 1 << (uint(i) & 63) }
func (s stateSet) contains(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

func (s stateSet) isEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// unionWith ors t into s, reporting whether s gained any state. Both sets
// must have the same capacity.
func (s stateSet) unionWith(t stateSet) bool {
	changed := false
	for i, w := range t {
		if w&^s[i] != 0 {
			changed = true
			s[i] |= w
		}
	}
	return changed
}

// forEach calls fn with every member in ascending order.
func (s stateSet) forEach(fn func(state int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(wi<<6 | b)
		}
	}
}

// subsetBuffer gathers one subset of the subset construction in a bitset
// reused from step to step. It records which words it has set, so reading
// the subset out and clearing it cost time in the words the subset touches
// rather than in the width of the machine.
type subsetBuffer struct {
	set   stateSet
	words []int // the indices of set's non-zero words, in no order
	key   []byte
}

func newSubsetBuffer(numStates int) *subsetBuffer {
	return &subsetBuffer{set: newStateSet(numStates)}
}

// enter adds state s of m and its ε-closure. A state already present needs
// nothing more: it arrived with its closure, or inside a closure, and
// closures are transitively closed.
func (x *subsetBuffer) enter(m *NFA, s int) {
	if x.set.contains(s) {
		return
	}
	if len(m.eps[s]) == 0 {
		x.or(s>>6, 1<<(uint(s)&63))
		return
	}
	for wi, w := range m.eclose(s) {
		if w != 0 {
			x.or(wi, w)
		}
	}
}

func (x *subsetBuffer) or(wi int, w uint64) {
	if x.set[wi] == 0 {
		x.words = append(x.words, wi)
	}
	x.set[wi] |= w
}

// take empties the subset and returns its key: the members in ascending
// order, four little-endian bytes each (see keyState). The key is only
// valid until the next take.
func (x *subsetBuffer) take() []byte {
	slices.Sort(x.words)
	x.key = x.key[:0]
	for _, wi := range x.words {
		w := x.set[wi]
		x.set[wi] = 0
		for w != 0 {
			s := uint32(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
			x.key = append(x.key, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
	}
	x.words = x.words[:0]
	return x.key
}

// keyState decodes the member at byte offset i of a subset key.
func keyState(key string, i int) int {
	return int(key[i]) | int(key[i+1])<<8 | int(key[i+2])<<16 | int(key[i+3])<<24
}

// ecloCache memoizes per-state ε-closures of an immutable machine. Entries
// fill lazily under the same atomic.Pointer discipline as NFA.canon:
// concurrent solves over a shared (interned) machine may race to compute a
// closure, but every racer computes the same value, so last-store-wins is
// sound. The cache is allocated once at Build time and shared by every
// zero-copy view of the machine, so a closure computed through one view is
// visible to all of them.
type ecloCache struct {
	sets []atomic.Pointer[stateSet]
}

func newEcloCache(numStates int) *ecloCache {
	return &ecloCache{sets: make([]atomic.Pointer[stateSet], numStates)}
}

// seamMemo memoizes the seam-free transition structure derived from a
// machine (see NFA.seamFree). Like ecloCache it is allocated at Build time
// and shared by views: the memoized machine's own start/final are
// irrelevant — Induce and DropSeams always re-aim it through a view.
type seamMemo struct {
	p atomic.Pointer[NFA]
}
