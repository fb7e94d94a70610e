package nic

import (
	"barbican/internal/flatidx"
	"barbican/internal/fw"
	"barbican/internal/packet"
)

// flowCache is the XDP-style per-flow verdict cache: a bounded map from
// a packet's flow identity to the verdict the policy produced for that
// flow, so repeated packets of an established flow pay one hash lookup
// (Profile.CacheHitCost) instead of a rule match. Entries never expire
// on their own; the whole cache is invalidated on every policy commit
// and degraded-mode transition, which is what keeps a cached verdict
// always equal to what the installed policy would decide.
//
// The structure is a fixed flat index (internal/flatidx) over fixed
// parallel slot arrays with a round-robin eviction cursor: memory is
// allocated once, at construction, eviction order comes from the
// cursor alone, and neither a hit nor an insert allocates.

// FlowCacheStats is a snapshot of the cache's counters.
type FlowCacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int
}

type flowCache struct {
	cap      int
	idx      *flatidx.Index
	keys     []flatidx.Key
	verdicts []fw.Verdict
	used     []bool
	cursor   int

	hits, misses, evictions, invalidations uint64
}

func newFlowCache(capacity int) *flowCache {
	if capacity <= 0 {
		return nil
	}
	return &flowCache{
		cap:      capacity,
		idx:      flatidx.New(capacity),
		keys:     make([]flatidx.Key, capacity),
		verdicts: make([]fw.Verdict, capacity),
		used:     make([]bool, capacity),
	}
}

// key builds the flow identity for a packet summary traveling in dir
// whose conntrack classification is cs. It carries exactly the packet
// attributes fw.Rule.MatchesState reads — protocol, addresses, ports
// (and whether they exist), sealing, travel direction, and the
// conntrack classification — and nothing else, so two packets with
// equal keys are guaranteed the same verdict under a fixed policy.
// Per-packet attributes that do not change the verdict (length, TCP
// flags except through cs, fragmentation) stay out of the key and keep
// the hit rate high. On stateless policies cs is always fw.StateNone.
//
// The key packs into 128 bits with no padding: Hi holds the source and
// destination addresses; Lo the source and destination ports, the
// protocol, the direction and cs (one byte each), and a flags byte
// (bit 0: has transport ports; bit 1: sealed).
//
//barbican:noalloc
func (c *flowCache) key(s packet.Summary, dir fw.Direction, cs fw.ConnState) flatidx.Key {
	lo := uint64(s.Proto)<<24 | uint64(uint8(dir))<<16 | uint64(uint8(cs))<<8
	if s.HasPorts {
		lo |= uint64(s.SrcPort)<<48 | uint64(s.DstPort)<<32 | 1
	}
	if s.Sealed {
		lo |= 2
	}
	return flatidx.Key{Hi: uint64(s.Src.Uint32())<<32 | uint64(s.Dst.Uint32()), Lo: lo}
}

// lookup returns the cached verdict for the packet's flow. It is the
// per-packet hot path: one index probe, no writes beyond the counters.
//
//barbican:noalloc
func (c *flowCache) lookup(s packet.Summary, dir fw.Direction, cs fw.ConnState) (fw.Verdict, bool) {
	if i, ok := c.idx.Get(c.key(s, dir, cs)); ok {
		c.hits++
		return c.verdicts[i], true
	}
	c.misses++
	return fw.Verdict{}, false
}

// insert remembers the verdict for the packet's flow, evicting the
// slot under the round-robin cursor when the cache is full.
//
//barbican:noalloc
func (c *flowCache) insert(s packet.Summary, dir fw.Direction, cs fw.ConnState, v fw.Verdict) {
	k := c.key(s, dir, cs)
	if i, ok := c.idx.Get(k); ok {
		c.verdicts[i] = v
		return
	}
	slot := c.cursor
	c.cursor++
	if c.cursor == c.cap {
		c.cursor = 0
	}
	if c.used[slot] {
		c.idx.Delete(c.keys[slot])
		c.evictions++
	}
	c.keys[slot] = k
	c.verdicts[slot] = v
	c.used[slot] = true
	c.idx.Put(k, int32(slot))
}

// invalidate drops every cached verdict. Called on policy commits and
// degraded-mode transitions; the index and the slot arrays keep their
// memory, so refill after invalidation does not allocate.
func (c *flowCache) invalidate() {
	c.idx.Clear()
	for i := range c.used {
		c.used[i] = false
	}
	c.cursor = 0
	c.invalidations++
}

func (c *flowCache) stats() FlowCacheStats {
	return FlowCacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.idx.Len(),
	}
}
