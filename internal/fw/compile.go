package fw

import (
	"math/bits"
	"slices"

	"barbican/internal/packet"
)

// This file is the simulator's rule matcher (RuleSet.Match): a RuleSet
// compiled into a dimension-split interval structure whose lookup cost
// is independent of rule depth. The geometry is space.go's — a rule's match space is
// a product of integer intervals — projected per dimension: each
// dimension's axis is cut at every rule boundary into elementary
// segments, and each segment stores the bitmask of rules whose
// interval covers it (the classic bit-vector classification scheme).
// Evaluating a packet is then one value→segment binary search per
// dimension plus a word-wise AND of the per-dimension masks; the
// lowest set bit of the intersection is, by construction, the first
// matching rule — so the verdict (Action, Rule, Index, Traversed) is
// byte-identical to the linear walk's while the work is
// O(dims × log segments + rules/64) instead of O(rules).
//
// The discrete packet attributes the linear walk branches on — travel
// direction, sealed-vs-cleartext, and port presence — are not interval
// searches but mask selections: direction × sealed picks one of four
// precomputed class masks (VPG rules match sealed traffic inbound and
// cleartext outbound; plain rules never match sealed envelopes), and a
// portless packet swaps the two port-segment lookups for the mask of
// rules that match packets without transport ports.

// CompiledSet is the compiled form of a RuleSet. It shares the
// underlying rule storage and hit counters: EvalState updates the same
// per-rule match counters, default-hit and eval totals the linear walk
// would, so per-rule attribution, metrics collectors, and profiler
// frames built on the RuleSet keep working unchanged.
//
// Like RuleSet.EvalState, CompiledSet.EvalState is not safe for
// concurrent use (it increments the shared counters); the compiled
// tables themselves are immutable after Compile.
type CompiledSet struct {
	rs    *RuleSet
	words int

	// class[d][s] is the mask of rules applicable to direction In+d
	// traveling sealed (s=1) or cleartext (s=0).
	class [2][2][]uint64
	// protoAny covers rules that match any protocol (VPG rules and
	// plain rules with Proto == 0); protoVals/protoMasks extend it per
	// distinct protocol, already OR-ed with protoAny.
	protoAny   []uint64
	protoVals  []packet.Protocol
	protoMasks []uint64 // len(protoVals) × words, flattened
	// portless is the mask of rules that match packets without
	// transport ports (both port ranges Any; includes all VPG rules).
	portless []uint64
	// stateMasks[cs] is the mask of rules matchable under conntrack
	// classification cs: stateless rules appear in every state's mask,
	// stateful rules only where their StateMask has the bit.
	stateMasks [NumConnStates][]uint64

	src, dst         segTable
	srcPort, dstPort segTable
}

// segTable maps a dimension value to the bitmask of rules whose
// interval contains it, via elementary segments: bounds[k] is the
// first value of segment k (bounds[0] is always 0), and masks holds
// one words-sized bitmask per segment, flattened.
type segTable struct {
	bounds []uint32
	masks  []uint64
	words  int
}

// lookup returns the rule mask of the segment containing v: the
// greatest k with bounds[k] <= v, by binary search.
//
//barbican:noalloc
func (t *segTable) lookup(v uint32) []uint64 {
	lo, hi := 0, len(t.bounds)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return t.masks[lo*t.words : (lo+1)*t.words]
}

// cutAxis writes into bounds (room for 2·len(ivals)+1 values) the
// sorted first values of the segments the intervals cut [0, maxVal]
// into: 0, every interval start and every value just past an end.
func cutAxis(bounds []uint32, ivals [][2]uint32, maxVal uint32) []uint32 {
	bounds = append(bounds[:0], 0)
	last := [2]uint32{1, 0} // no interval is {1, 0}
	for _, iv := range ivals {
		if iv == last {
			continue // a repeat adds no cut
		}
		last = iv
		if iv[0] > 0 {
			bounds = append(bounds, iv[0])
		}
		if iv[1] < maxVal {
			bounds = append(bounds, iv[1]+1)
		}
	}
	slices.Sort(bounds)
	return slices.Compact(bounds)
}

// fill sets rule i's bit (rule i+1) in each segment its interval
// covers: interval ends are cuts, so that is the run of segments from
// the one starting at its low end up to its high end. Only the run is
// visited, and a repeat of the previous rule's interval reuses it.
func (t *segTable) fill(ivals [][2]uint32) {
	last, lo, hi := [2]uint32{1, 0}, 0, 0 // no interval is {1, 0}
	for i, iv := range ivals {
		if iv != last {
			last = iv
			lo, _ = slices.BinarySearch(t.bounds, iv[0])
			for hi = lo; hi < len(t.bounds) && t.bounds[hi] <= iv[1]; hi++ {
			}
		}
		w, bit := i/64, uint64(1)<<(i%64)
		for seg := lo; seg < hi; seg++ {
			t.masks[seg*t.words+w] |= bit
		}
	}
}

// Compile builds the depth-independent matcher for a validated
// rule-set. Every table is carved from one backing slice of masks and
// one of segment bounds, so compilation costs a handful of allocations
// at any depth. RuleSet.Match calls it once per rule set.
func Compile(rs *RuleSet) *CompiledSet {
	n := len(rs.rules)
	words := (n + 63) / 64
	c := &CompiledSet{rs: rs, words: words}
	tables := [4]*segTable{&c.src, &c.dst, &c.srcPort, &c.dstPort}
	maxVal := [4]uint32{^uint32(0), ^uint32(0), 65535, 65535}

	// Axis a's interval for rule i is ivals[a*n+i].
	ivals := make([][2]uint32, 4*n)
	protos := make([]packet.Protocol, 0, n)
	for i := range rs.rules {
		r := &rs.rules[i]
		if !r.IsVPG() && r.Proto != 0 {
			protos = append(protos, r.Proto)
		}
		ivals[i], ivals[n+i] = prefixInterval(r.Src), prefixInterval(r.Dst)
		ivals[2*n+i], ivals[3*n+i] = portInterval(r.SrcPorts), portInterval(r.DstPorts)
	}
	slices.Sort(protos)
	c.protoVals = slices.Clip(slices.Compact(protos))
	per, segs := 2*n+1, 0
	bounds := make([]uint32, 4*per)
	for a, t := range tables {
		t.bounds = cutAxis(bounds[a*per:a*per:(a+1)*per], ivals[a*n:(a+1)*n], maxVal[a])
		segs += len(t.bounds)
	}

	// The class, protoAny, portless and state masks, then one mask per
	// protocol, then one per segment.
	masks := make([]uint64, (4+2+int(NumConnStates)+len(c.protoVals)+segs)*words)
	carve := func(k int) []uint64 {
		m := masks[: k*words : k*words]
		masks = masks[k*words:]
		return m
	}
	c.class = [2][2][]uint64{{carve(1), carve(1)}, {carve(1), carve(1)}}
	c.protoAny, c.portless = carve(1), carve(1)
	for cs := range c.stateMasks {
		c.stateMasks[cs] = carve(1)
	}
	c.protoMasks = carve(len(c.protoVals))
	for a, t := range tables {
		t.words, t.masks = words, carve(len(t.bounds))
		t.fill(ivals[a*n : (a+1)*n])
	}

	for i := range rs.rules {
		r := &rs.rules[i]
		w, bit := i/64, uint64(1)<<(i%64)
		for d, dir := range [2]Direction{In, Out} {
			if r.Direction == Both || r.Direction == dir {
				// VPG rules match sealed envelopes inbound and the
				// cleartext traffic they will seal outbound.
				sealed := 0
				if r.IsVPG() && dir == In {
					sealed = 1
				}
				c.class[d][sealed][w] |= bit
			}
		}
		// Each protocol's mask also holds the rules for any protocol.
		if r.IsVPG() || r.Proto == 0 {
			c.protoAny[w] |= bit
			for pi := range c.protoVals {
				c.protoMasks[pi*words+w] |= bit
			}
		} else {
			pi, _ := slices.BinarySearch(c.protoVals, r.Proto)
			c.protoMasks[pi*words+w] |= bit
		}
		if r.SrcPorts.Any() && r.DstPorts.Any() {
			c.portless[w] |= bit
		}
		for cs := range c.stateMasks {
			if r.States == 0 || r.States.Has(ConnState(cs)) {
				c.stateMasks[cs][w] |= bit
			}
		}
	}
	return c
}

// protoMask returns the rule mask for packets carrying protocol p. The
// distinct-protocol list is tiny (a handful of IP protocols per
// policy), so a linear scan beats a branchy binary search.
//
//barbican:noalloc
func (c *CompiledSet) protoMask(p packet.Protocol) []uint64 {
	for i, v := range c.protoVals {
		if v == p {
			return c.protoMasks[i*c.words : (i+1)*c.words]
		}
	}
	return c.protoAny
}

// EvalState returns the verdict the linear RuleSet.EvalState would
// return for the same packet, direction and conntrack classification —
// identical on every Verdict field, including the *Rule pointer — and
// applies the same counter updates. The work is independent of where
// in the rule-set the match lands.
//
//barbican:noalloc
func (c *CompiledSet) EvalState(s packet.Summary, dir Direction, cs ConnState) Verdict {
	if dir != In && dir != Out {
		// The compiled class masks are built for concrete travel
		// directions; anything else takes the reference walk.
		return c.rs.EvalState(s, dir, cs)
	}
	if cs < StateNone || cs >= NumConnStates {
		return c.rs.EvalState(s, dir, cs)
	}
	sealed := 0
	if s.Sealed {
		sealed = 1
	}
	cls := c.class[dir-In][sealed]
	stm := c.stateMasks[cs]
	pm := c.protoMask(s.Proto)
	sm := c.src.lookup(s.Src.Uint32())
	dm := c.dst.lookup(s.Dst.Uint32())
	var spm, dpm []uint64
	if s.HasPorts {
		spm = c.srcPort.lookup(uint32(s.SrcPort))
		dpm = c.dstPort.lookup(uint32(s.DstPort))
	} else {
		spm, dpm = c.portless, c.portless
	}
	c.rs.evals++
	for w := 0; w < c.words; w++ {
		x := cls[w] & stm[w] & pm[w] & sm[w] & dm[w] & spm[w] & dpm[w]
		if x == 0 {
			continue
		}
		i := w*64 + bits.TrailingZeros64(x)
		c.rs.matches[i]++
		r := &c.rs.rules[i]
		return Verdict{Action: r.Action, Rule: r, Index: i + 1, Traversed: i + 1}
	}
	c.rs.defHits++
	return Verdict{Action: c.rs.def, Traversed: len(c.rs.rules)}
}
