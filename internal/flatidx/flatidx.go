// Package flatidx is the fixed-size index behind the stateful card's
// churned tables: the conntrack entry index, its per-address-pair
// counts, and the flow-verdict cache.
//
// An Index maps 128-bit keys to int32 values in one flat slot array,
// open-addressed with linear probing. A delete shifts the rest of its
// probe chain back into the hole, so there are no tombstones, and the
// array never grows: New sizes it once, at the smallest power of two
// at least twice the caller's hard bound on live keys, so the load
// factor never passes one half and a full table allocates nothing
// more. Putting more keys than the bound panics.
//
// Slot positions depend on the hash and on insertion history, so
// nothing may iterate an Index for an order-dependent decision; the
// callers keep their own eviction order (LRU lists, a seeded stream,
// a round-robin cursor) and only look keys up here.
package flatidx

import (
	"errors"
	"math/bits"
)

// errPastBound is Put's panic value; a preallocated error keeps the
// panic path allocation-free.
var errPastBound = errors.New("flatidx: Put past the index's bound")

// Key is a 128-bit key. Callers pack their tuples into the two words
// with no padding, so equal tuples are equal keys.
type Key struct{ Hi, Lo uint64 }

// slot is one position of the table.
type slot struct {
	key  Key
	val  int32
	used bool
}

// Index is a fixed-size map from Key to int32. It is not safe for
// concurrent use.
type Index struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the home slot
	bound int
	n     int
}

// New returns an empty index for at most bound live keys (at least 1).
func New(bound int) *Index {
	bound = max(bound, 1)
	size := 1 << bits.Len(uint(2*bound-1))
	return &Index{
		slots: make([]slot, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		bound: bound,
	}
}

// Len returns the number of live keys.
func (x *Index) Len() int { return x.n }

// home returns k's preferred slot: a splitmix64 finalizer over the
// folded key, whose top bits index the table.
//
//barbican:noalloc
func (x *Index) home(k Key) int {
	h := k.Hi*0x9e3779b97f4a7c15 ^ k.Lo
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h >> x.shift)
}

// find returns k's slot, or the empty slot ending its probe chain.
//
//barbican:noalloc
func (x *Index) find(k Key) (int, bool) {
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if !s.used {
			return i, false
		}
		if s.key == k {
			return i, true
		}
	}
}

// Get returns the value stored under k.
//
//barbican:noalloc
func (x *Index) Get(k Key) (int32, bool) {
	i, ok := x.find(k)
	return x.slots[i].val, ok
}

// Put stores v under k, replacing any value already there. It panics
// when k is new and the index already holds its bound.
//
//barbican:noalloc
func (x *Index) Put(k Key, v int32) {
	i, ok := x.find(k)
	if !ok {
		if x.n == x.bound {
			panic(errPastBound)
		}
		x.n++
		x.slots[i] = slot{key: k, used: true}
	}
	x.slots[i].val = v
}

// Delete removes k and reports whether it was present. Each later
// entry of the probe chain whose home does not lie between the hole
// and itself moves back into the hole, so every live key stays
// reachable from its home without crossing an empty slot.
//
//barbican:noalloc
func (x *Index) Delete(k Key) bool {
	hole, ok := x.find(k)
	if !ok {
		return false
	}
	x.n--
	mask := len(x.slots) - 1
	for j := (hole + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole when the hole lies on its
		// probe path: j is at least as far from its home as from the
		// hole (distances taken cyclically).
		if (j-x.home(x.slots[j].key))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = slot{}
	return true
}

// Clear removes every key.
func (x *Index) Clear() {
	clear(x.slots)
	x.n = 0
}
