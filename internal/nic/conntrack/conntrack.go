// Package conntrack implements the card's connection-tracking table:
// an RFC 793-shaped TCP state machine plus lightweight UDP/ICMP
// pseudo-state behind a hard-bounded, deterministically evicted entry
// store, all on virtual time.
//
// The table is split from verdict delivery the way netfilter splits
// conntrack from filter: Classify runs on every packet before rule
// evaluation and returns the fw.ConnState the rules match on
// (advancing the state machine of existing entries as a side effect),
// while Commit runs only after an Allow verdict and is the sole
// operation that creates entries — a denied SYN never occupies a slot.
//
// Bound and eviction are the package's reason to exist: the table
// holds at most Cap entries, each charged against the card's memory
// budget by the NIC profile, and when full the configured EvictPolicy
// decides deterministically (seeded, on virtual time) which entry dies
// — the difference between the three policies under SYN flood is one
// of the experiment families this repository measures.
//
// The bound holds for the host's memory too. Entries live in a slab of
// Cap slots, and the two lookup structures — the tuple index and the
// per-address-pair counts behind RELATED — are internal/flatidx
// indexes sized once in New for Cap keys, so a table allocates nothing
// after New however hard it churns. (Go maps in their place grew past
// their size hints under a SYN flood.) Eviction order comes from the
// LRU lists and the seeded stream alone; nothing iterates an index.
package conntrack

import (
	"math/rand"
	"time"

	"barbican/internal/flatidx"
	"barbican/internal/fw"
	"barbican/internal/packet"
)

// EvictPolicy selects the victim entry when the table is full.
type EvictPolicy int

// Eviction policies.
const (
	// EvictLRU removes the least recently used entry, embryonic or
	// assured alike.
	EvictLRU EvictPolicy = iota + 1
	// EvictRandom removes a uniformly chosen entry (seeded stream).
	EvictRandom
	// EvictSYNDrop removes only embryonic (not yet assured) entries —
	// the netfilter early_drop discipline. When every entry is
	// assured, the insert fails instead.
	EvictSYNDrop
	// NumEvictPolicies is the sentinel for exhaustive-switch checks.
	NumEvictPolicies
)

var evictPolicyNames = [...]string{
	EvictLRU:     "lru",
	EvictRandom:  "random",
	EvictSYNDrop: "syn-drop",
}

// String names the policy ("lru", "random", "syn-drop").
func (p EvictPolicy) String() string {
	if p > 0 && int(p) < len(evictPolicyNames) {
		return evictPolicyNames[p]
	}
	return "evict(?)"
}

// keyOf canonicalizes a summary's tuple into the index key: the two
// endpoints ordered (lower address, then lower port, first) plus the IP
// protocol, so both directions of a connection map to the same entry.
// Hi holds the lower and the higher address, Lo the lower port, the
// higher port and the protocol. ICMP pairs use zero ports.
//
//barbican:noalloc
func keyOf(s packet.Summary) flatidx.Key {
	sp, dp := s.SrcPort, s.DstPort
	if s.Proto == packet.ProtoICMP || !s.HasPorts {
		sp, dp = 0, 0
	}
	su, du := s.Src.Uint32(), s.Dst.Uint32()
	if su > du || (su == du && sp > dp) {
		su, du, sp, dp = du, su, dp, sp
	}
	return flatidx.Key{
		Hi: uint64(su)<<32 | uint64(du),
		Lo: uint64(sp)<<24 | uint64(dp)<<8 | uint64(s.Proto),
	}
}

// protoOf is a key's IP protocol.
func protoOf(k flatidx.Key) packet.Protocol { return packet.Protocol(k.Lo) }

// pairOf is a key's unordered address pair, the ICMP-related index's
// key.
func pairOf(k flatidx.Key) flatidx.Key { return flatidx.Key{Hi: k.Hi} }

// List identifiers for an entry's intrusive-list membership.
const (
	onNone = iota
	onEmbryonic
	onAssured
)

// entry is one tracked connection. Entries live in a fixed slab; the
// intrusive prev/next indices thread them onto exactly one of two LRU
// lists (embryonic or assured), least recently used at the head.
type entry struct {
	key       flatidx.Key
	origSrc   packet.IP // initiator's address ...
	origSport uint16    // ... and source port, for direction semantics
	tcp       TCPState
	replied   bool // a packet in the reply direction has been seen
	assured   bool // handshake completed (TCP) or replied (UDP)
	inUse     bool
	list      uint8
	prev      int32
	next      int32
	created   time.Duration
	lastSeen  time.Duration
	expiresAt time.Duration
}

// lruList is an intrusive doubly linked list over the entry slab.
type lruList struct{ head, tail int32 }

// Stats are the table's monotonic counters.
type Stats struct {
	// Lookups counts Classify calls; Hits the ones that found a live
	// entry.
	Lookups, Hits uint64
	// Created counts entries inserted; Evicted those removed by the
	// eviction policy; Expired those removed by idle timeout; Full the
	// inserts that failed because no entry was evictable.
	Created, Evicted, Expired, Full uint64
	// Flushes counts whole-table flushes.
	Flushes uint64
}

// Config configures a table.
type Config struct {
	// Cap bounds the entry count; must be positive.
	Cap int
	// Policy selects the eviction discipline (default EvictLRU).
	Policy EvictPolicy
	// Seed feeds EvictRandom's private deterministic stream.
	Seed int64
}

// Table is the bounded connection-tracking store. It is not safe for
// concurrent use; the NIC serializes access on the simulator's
// virtual-time event loop.
type Table struct {
	cap    int
	policy EvictPolicy
	rng    *rand.Rand

	idx       *flatidx.Index // key → entry slot
	entries   []entry
	freeList  []int32
	embryonic lruList
	assured   lruList
	pairCount *flatidx.Index // address pair → its live non-ICMP entries

	// looseUntil, when in the future, admits TCP packets with no entry
	// as New (and Commit re-establishes them directly): the recovery
	// resync window, the tcp_loose analog.
	looseUntil time.Duration

	stats Stats
}

// New builds an empty table.
func New(cfg Config) *Table {
	if cfg.Cap <= 0 {
		cfg.Cap = 1
	}
	if cfg.Policy == 0 {
		cfg.Policy = EvictLRU
	}
	t := &Table{
		cap:       cfg.Cap,
		policy:    cfg.Policy,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		idx:       flatidx.New(cfg.Cap),
		entries:   make([]entry, cfg.Cap),
		freeList:  make([]int32, 0, cfg.Cap),
		pairCount: flatidx.New(cfg.Cap),
	}
	t.embryonic = lruList{head: -1, tail: -1}
	t.assured = lruList{head: -1, tail: -1}
	for i := cfg.Cap - 1; i >= 0; i-- {
		t.freeList = append(t.freeList, int32(i))
	}
	return t
}

// Len returns the live entry count (lazily expired entries included
// until touched or reaped).
func (t *Table) Len() int { return t.cap - len(t.freeList) }

// Cap returns the entry bound.
func (t *Table) Cap() int { return t.cap }

// Policy returns the eviction policy.
func (t *Table) Policy() EvictPolicy { return t.policy }

// Stats returns the counters.
func (t *Table) Stats() Stats { return t.stats }

// list returns the list an entry belongs on.
func (t *Table) listOf(e *entry) *lruList {
	if e.list == onAssured {
		return &t.assured
	}
	return &t.embryonic
}

// unlink removes entry i from its list.
//
//barbican:noalloc
func (t *Table) unlink(i int32) {
	e := &t.entries[i]
	l := t.listOf(e)
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next, e.list = -1, -1, onNone
}

// pushTail appends entry i to a list's most-recently-used end.
//
//barbican:noalloc
func (t *Table) pushTail(l *lruList, i int32, list uint8) {
	e := &t.entries[i]
	e.list = list
	e.prev = l.tail
	e.next = -1
	if l.tail >= 0 {
		t.entries[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// touch refreshes an entry's recency and idle deadline after a packet.
//
//barbican:noalloc
func (t *Table) touch(i int32, now time.Duration) {
	e := &t.entries[i]
	e.lastSeen = now
	e.expiresAt = now + idleTimeout(e)
	list := uint8(onEmbryonic)
	l := &t.embryonic
	if e.assured {
		list, l = onAssured, &t.assured
	}
	t.unlink(i)
	t.pushTail(l, i, list)
}

// remove frees entry i.
//
//barbican:noalloc
func (t *Table) remove(i int32) {
	e := &t.entries[i]
	t.unlink(i)
	t.idx.Delete(e.key)
	if protoOf(e.key) != packet.ProtoICMP {
		p := pairOf(e.key)
		if c, _ := t.pairCount.Get(p); c <= 1 {
			t.pairCount.Delete(p)
		} else {
			t.pairCount.Put(p, c-1)
		}
	}
	*e = entry{}
	t.freeList = append(t.freeList, i)
}

// Flush removes every entry: the state a card reset or an explicit
// RecoveryFlush leaves behind.
func (t *Table) Flush() {
	for i := range t.entries {
		if t.entries[i].inUse {
			t.remove(int32(i))
		}
	}
	t.stats.Flushes++
}

// EnterLooseWindow opens the recovery resync window: until the given
// virtual time, TCP packets with no entry classify as New instead of
// Invalid, and Commit re-establishes them as assured entries directly
// — how a recovered card re-adopts connections that lived through an
// outage it did not track.
func (t *Table) EnterLooseWindow(until time.Duration) {
	if until > t.looseUntil {
		t.looseUntil = until
	}
}

// InLooseWindow reports whether the resync window is open at now.
func (t *Table) InLooseWindow(now time.Duration) bool { return now < t.looseUntil }

// expired reports whether entry i is past its idle deadline.
func (t *Table) expiredAt(i int32, now time.Duration) bool {
	return t.entries[i].expiresAt <= now
}

// lookupLive finds the live entry for a key, lazily expiring a dead
// one.
//
//barbican:noalloc
func (t *Table) lookupLive(k flatidx.Key, now time.Duration) (int32, bool) {
	i, ok := t.idx.Get(k)
	if !ok {
		return -1, false
	}
	if t.expiredAt(i, now) {
		t.stats.Expired++
		t.remove(i)
		return -1, false
	}
	return i, true
}

// Classify looks the packet's connection up and returns the
// fw.ConnState its rules should match on, advancing the tracked state
// machine for packets that belong to an existing entry. It never
// creates entries — that is Commit's job, after the verdict.
//
//barbican:noalloc
func (t *Table) Classify(s packet.Summary, now time.Duration) fw.ConnState {
	t.stats.Lookups++
	k := keyOf(s)
	i, ok := t.lookupLive(k, now)
	if !ok {
		return t.classifyNoEntry(s, k, now)
	}
	t.stats.Hits++
	e := &t.entries[i]
	fromInit := s.Src == e.origSrc && (s.SrcPort == e.origSport || !s.HasPorts)
	if !fromInit && !e.replied {
		e.replied = true
		if e.tcp == TCPNone {
			// UDP (or ICMP pair) sees its first reply: assured.
			e.assured = true
		}
	}
	switch e.tcp {
	case TCPNone:
		// UDP/ICMP pseudo-state: established once replied.
		cs := fw.StateNew
		if e.replied {
			cs = fw.StateEstablished
		}
		t.touch(i, now)
		return cs
	case TCPClosed:
		if s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagACK) &&
			!s.Flags.Has(packet.FlagRST) {
			// Tuple reuse after close: restart as a fresh connection.
			t.restart(i, s, now)
			return fw.StateNew
		}
		t.touch(i, now)
		return fw.StateInvalid
	case TCPTimeWait:
		if s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagACK) &&
			!s.Flags.Has(packet.FlagRST) {
			t.restart(i, s, now)
			return fw.StateNew
		}
	case TCPSynSent:
		if fromInit && s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagACK) {
			// Retransmitted initial SYN: still the connection opener.
			t.touch(i, now)
			return fw.StateNew
		}
	case TCPSynRecv, TCPEstablished, TCPFinWait, TCPClosing, NumTCPStates:
	}
	if advanceTCP(e, fromInit, s.Flags) {
		e.assured = true
	}
	t.touch(i, now)
	return fw.StateEstablished
}

// classifyNoEntry decides the state of a packet with no table entry.
//
//barbican:noalloc
func (t *Table) classifyNoEntry(s packet.Summary, k flatidx.Key, now time.Duration) fw.ConnState {
	switch s.Proto {
	case packet.ProtoTCP:
		if s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagACK) &&
			!s.Flags.Has(packet.FlagRST) {
			return fw.StateNew
		}
		if t.InLooseWindow(now) {
			// Resync window: mid-stream packets of untracked
			// connections are picked up instead of dropped.
			return fw.StateNew
		}
		return fw.StateInvalid
	case packet.ProtoICMP:
		if _, ok := t.pairCount.Get(pairOf(k)); ok {
			return fw.StateRelated
		}
		return fw.StateNew
	default:
		return fw.StateNew
	}
}

// restart rewinds a Closed/TimeWait entry for tuple reuse: the packet
// is a fresh SYN from whichever side sent it.
//
//barbican:noalloc
func (t *Table) restart(i int32, s packet.Summary, now time.Duration) {
	e := &t.entries[i]
	e.origSrc, e.origSport = s.Src, s.SrcPort
	e.tcp = TCPSynSent
	e.replied, e.assured = false, false
	e.created = now
	t.touch(i, now)
}

// CommitStatus reports what Commit did.
type CommitStatus int

// Commit outcomes.
const (
	// CommitExisting: the packet already had a (or needs no) entry.
	CommitExisting CommitStatus = iota + 1
	// CommitCreated: a new entry was inserted into a free slot.
	CommitCreated
	// CommitEvicted: a new entry was inserted after evicting a victim.
	CommitEvicted
	// CommitFull: no entry was insertable (SYN-drop policy with every
	// entry assured); the caller applies its fail posture.
	CommitFull
	// NumCommitStatuses is the sentinel for exhaustive-switch checks.
	NumCommitStatuses
)

// Commit records the connection an *allowed* packet starts, creating
// its entry (evicting per policy when the table is full). Packets
// whose connection is already tracked, and Related packets, are
// no-ops.
//
//barbican:noalloc
func (t *Table) Commit(s packet.Summary, now time.Duration) CommitStatus {
	k := keyOf(s)
	if _, ok := t.lookupLive(k, now); ok {
		return CommitExisting
	}
	st := TCPNone
	if s.Proto == packet.ProtoTCP {
		if !s.Flags.Has(packet.FlagSYN) || s.Flags.Has(packet.FlagACK) ||
			s.Flags.Has(packet.FlagRST) {
			if !t.InLooseWindow(now) {
				// Only an initial SYN opens a tracked TCP connection
				// (mid-stream pickup happens only while resyncing).
				return CommitExisting
			}
		} else {
			st = TCPSynSent
		}
	} else if s.Proto == packet.ProtoICMP {
		if _, ok := t.pairCount.Get(pairOf(k)); ok {
			// Related ICMP rides on the connection it refers to.
			return CommitExisting
		}
	}

	i, ok := t.slot(now)
	status := CommitCreated
	if !ok {
		i, ok = t.evict(now)
		if !ok {
			t.stats.Full++
			return CommitFull
		}
		status = CommitEvicted
	}
	e := &t.entries[i]
	e.key = k
	e.origSrc, e.origSport = s.Src, s.SrcPort
	e.tcp = st
	e.inUse = true
	e.created = now
	if s.Proto == packet.ProtoTCP && st == TCPNone {
		// Loose-window pickup: adopt the connection as established
		// and assured immediately.
		e.tcp = TCPEstablished
		e.replied, e.assured = true, true
	}
	t.idx.Put(k, i)
	if s.Proto != packet.ProtoICMP {
		p := pairOf(k)
		c, _ := t.pairCount.Get(p)
		t.pairCount.Put(p, c+1)
	}
	list, l := uint8(onEmbryonic), &t.embryonic
	if e.assured {
		list, l = onAssured, &t.assured
	}
	e.lastSeen = now
	e.expiresAt = now + idleTimeout(e)
	t.pushTail(l, i, list)
	t.stats.Created++
	return status
}

// slot returns a free slot, reaping one expired list head if needed.
//
//barbican:noalloc
func (t *Table) slot(now time.Duration) (int32, bool) {
	if n := len(t.freeList); n > 0 {
		i := t.freeList[n-1]
		t.freeList = t.freeList[:n-1]
		return i, true
	}
	// Lists are recency-ordered, so the heads are the entries most
	// likely to have idled out; reap one rather than evicting a live
	// connection.
	for _, l := range [2]*lruList{&t.embryonic, &t.assured} {
		if l.head >= 0 && t.expiredAt(l.head, now) {
			t.stats.Expired++
			t.remove(l.head)
			n := len(t.freeList)
			i := t.freeList[n-1]
			t.freeList = t.freeList[:n-1]
			return i, true
		}
	}
	return -1, false
}

// evict frees a slot per the configured policy and returns it.
//
//barbican:noalloc
func (t *Table) evict(now time.Duration) (int32, bool) {
	var victim int32 = -1
	switch t.policy {
	case EvictLRU:
		// Global LRU across both lists: the older of the two heads.
		victim = t.embryonic.head
		if a := t.assured.head; a >= 0 &&
			(victim < 0 || t.entries[a].lastSeen < t.entries[victim].lastSeen) {
			victim = a
		}
	case EvictRandom:
		// The table is full, so any slot is a victim; one seeded draw.
		victim = int32(t.rng.Intn(t.cap))
	case EvictSYNDrop:
		// Only embryonic entries are expendable: a flood of half-open
		// connections can never displace an assured one.
		victim = t.embryonic.head
	case NumEvictPolicies:
	}
	if victim < 0 || !t.entries[victim].inUse {
		return -1, false
	}
	t.stats.Evicted++
	t.remove(victim)
	n := len(t.freeList)
	i := t.freeList[n-1]
	t.freeList = t.freeList[:n-1]
	return i, true
}

// PeekInfo is a read-only view of a tracked connection, for explain
// tooling.
type PeekInfo struct {
	// TCP is the tracked state (TCPNone for UDP/ICMP pseudo-state).
	TCP TCPState
	// Age is how long the entry has existed.
	Age time.Duration
	// IdleFor is the time since the last packet.
	IdleFor time.Duration
	// Replied and Assured mirror the entry flags.
	Replied, Assured bool
	// FromInitiator reports whether the peeked packet travels in the
	// connection's original direction.
	FromInitiator bool
}

// Peek returns the tracked connection a packet would consult, without
// mutating anything (no expiry, no transitions, no counters).
func (t *Table) Peek(s packet.Summary, now time.Duration) (PeekInfo, bool) {
	i, ok := t.idx.Get(keyOf(s))
	if !ok || t.expiredAt(i, now) {
		return PeekInfo{}, false
	}
	e := &t.entries[i]
	return PeekInfo{
		TCP:           e.tcp,
		Age:           now - e.created,
		IdleFor:       now - e.lastSeen,
		Replied:       e.replied,
		Assured:       e.assured,
		FromInitiator: s.Src == e.origSrc && (s.SrcPort == e.origSport || !s.HasPorts),
	}, true
}
