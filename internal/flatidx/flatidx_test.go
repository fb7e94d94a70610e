package flatidx

import (
	"fmt"
	"math/rand"
	"testing"
)

// keysHomedAt returns n distinct keys whose home slot in x is h, drawn
// from rng.
func keysHomedAt(x *Index, rng *rand.Rand, h, n int) []Key {
	var out []Key
	for len(out) < n {
		k := Key{Hi: rng.Uint64(), Lo: rng.Uint64() & 0xffff}
		if x.home(k) == h {
			out = append(out, k)
		}
	}
	return out
}

// checkChains verifies the invariant that backward-shift deletion
// keeps: the slot count matches Len, and no empty slot lies between a
// live key and its home.
func checkChains(t *testing.T, x *Index) {
	t.Helper()
	mask := len(x.slots) - 1
	live := 0
	for i, s := range x.slots {
		if !s.used {
			continue
		}
		live++
		for j := x.home(s.key); j != i; j = (j + 1) & mask {
			if !x.slots[j].used {
				t.Fatalf("slot %d (home %d) is cut off by the empty slot %d", i, x.home(s.key), j)
			}
		}
	}
	if live != x.n {
		t.Fatalf("%d used slots, Len %d", live, x.n)
	}
}

// TestIndexMatchesReference drives seeded random scripts of Put (new
// and overwriting), Get and Delete (present and absent) through an
// Index and a plain map, and requires the same answers, the same Len
// and an intact probe-chain invariant after every call. A third of each
// script's keys share the last slot as their home and a sixth the first
// two slots, so chains wrap past the end of the array and most deletes
// land inside a chain.
func TestIndexMatchesReference(t *testing.T) {
	const bound = 12
	var wrapped, innerDeletes int
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			x := New(bound)
			if len(x.slots) != 32 {
				t.Fatalf("bound %d sized %d slots, want 32", bound, len(x.slots))
			}
			last := len(x.slots) - 1
			var keys []Key
			keys = append(keys, keysHomedAt(x, rng, last, 8)...)
			keys = append(keys, keysHomedAt(x, rng, last-1, 4)...)
			keys = append(keys, keysHomedAt(x, rng, 0, 2)...)
			keys = append(keys, keysHomedAt(x, rng, 1, 2)...)
			for len(keys) < 24 {
				keys = append(keys, Key{Hi: rng.Uint64(), Lo: rng.Uint64()})
			}
			ref := make(map[Key]int32)
			for op := 0; op < 2000; op++ {
				k := keys[rng.Intn(len(keys))]
				want, present := ref[k]
				switch r := rng.Intn(10); {
				case r < 4:
					if !present && len(ref) == bound {
						continue
					}
					v := rng.Int31()
					x.Put(k, v)
					ref[k] = v
				case r < 7:
					i, ok := x.find(k)
					if ok && x.slots[(i+1)&last].used {
						innerDeletes++
					}
					if got := x.Delete(k); got != present {
						t.Fatalf("op %d: Delete = %v, reference %v", op, got, present)
					}
					delete(ref, k)
				default:
					got, ok := x.Get(k)
					if ok != present || got != want {
						t.Fatalf("op %d: Get = %d, %v; reference %d, %v", op, got, ok, want, present)
					}
				}
				if x.Len() != len(ref) {
					t.Fatalf("op %d: Len %d, reference %d", op, x.Len(), len(ref))
				}
				checkChains(t, x)
				for i, s := range x.slots {
					if s.used && i < x.home(s.key) {
						wrapped++
					}
				}
			}
			for _, k := range keys {
				got, ok := x.Get(k)
				if want, present := ref[k]; ok != present || got != want {
					t.Fatalf("final Get = %d, %v; reference %d, %v", got, ok, want, present)
				}
			}
			x.Clear()
			if x.Len() != 0 {
				t.Fatalf("Len %d after Clear", x.Len())
			}
			for _, k := range keys {
				if _, ok := x.Get(k); ok {
					t.Fatal("a key survived Clear")
				}
			}
		})
	}
	if wrapped == 0 || innerDeletes == 0 {
		t.Fatalf("scripts never exercised a wrapped chain (%d) or a delete inside a chain (%d)", wrapped, innerDeletes)
	}
}

// TestIndexSizing: the slot array is the smallest power of two at
// least twice the bound, and a Put past the bound panics instead of
// filling the table.
func TestIndexSizing(t *testing.T) {
	for _, c := range []struct{ bound, slots int }{{0, 2}, {1, 2}, {2, 4}, {3, 8}, {1024, 2048}, {1025, 4096}} {
		if got := len(New(c.bound).slots); got != c.slots {
			t.Errorf("New(%d): %d slots, want %d", c.bound, got, c.slots)
		}
	}
	x := New(3)
	for i := uint64(0); i < 3; i++ {
		x.Put(Key{Lo: i}, 1)
	}
	x.Put(Key{Lo: 2}, 5) // overwriting at the bound is fine
	defer func() {
		if recover() == nil {
			t.Fatal("Put past the bound did not panic")
		}
	}()
	x.Put(Key{Lo: 3}, 1)
}

// TestIndexAllocatesNothing: after New, every operation is
// allocation-free.
func TestIndexAllocatesNothing(t *testing.T) {
	x := New(64)
	i := uint64(0)
	if a := testing.AllocsPerRun(1000, func() {
		k := Key{Hi: i, Lo: i * 7}
		x.Put(k, int32(i))
		if _, ok := x.Get(k); !ok {
			t.Fatal("lost a key")
		}
		if i >= 32 {
			x.Delete(Key{Hi: i - 32, Lo: (i - 32) * 7})
		}
		i++
	}); a != 0 {
		t.Errorf("%v allocs per operation, want 0", a)
	}
}
