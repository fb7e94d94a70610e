package fw

import (
	"math/bits"
	"sort"

	"barbican/internal/packet"
)

// This file is the "modern NIC" matcher: a RuleSet compiled into a
// dimension-split interval structure whose lookup cost is independent
// of rule depth. The geometry is space.go's — a rule's match space is
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
// underlying rule storage and hit counters: Eval updates the same
// per-rule match counters, default-hit and eval totals the linear walk
// would, so per-rule attribution, metrics collectors, and profiler
// frames built on the RuleSet keep working unchanged.
//
// Like RuleSet.Eval, CompiledSet.Eval is not safe for concurrent use
// (it increments the shared counters); the compiled tables themselves
// are immutable after Compile.
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

// buildSegTable cuts the [0, maxVal] axis at every interval boundary
// and stores, per elementary segment, the mask of intervals covering
// it. Intervals are per-rule, in rule order, so bit i is rule i+1.
func buildSegTable(words int, ivals [][2]uint32, maxVal uint32) segTable {
	bounds := make([]uint32, 0, 2*len(ivals)+1)
	bounds = append(bounds, 0)
	for _, iv := range ivals {
		if iv[0] > 0 {
			bounds = append(bounds, iv[0])
		}
		if iv[1] < maxVal {
			bounds = append(bounds, iv[1]+1)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	masks := make([]uint64, len(uniq)*words)
	for seg, start := range uniq {
		for i, iv := range ivals {
			if iv[0] <= start && start <= iv[1] {
				masks[seg*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	return segTable{bounds: uniq, masks: masks, words: words}
}

// Compile builds the depth-independent matcher for a validated
// rule-set. Compilation is O(rules × segments) and allocates; it runs
// once per policy install, off the per-packet path.
func Compile(rs *RuleSet) *CompiledSet {
	n := len(rs.rules)
	words := (n + 63) / 64
	c := &CompiledSet{rs: rs, words: words}
	for d := 0; d < 2; d++ {
		for s := 0; s < 2; s++ {
			c.class[d][s] = make([]uint64, words)
		}
	}
	c.protoAny = make([]uint64, words)
	c.portless = make([]uint64, words)
	for cs := StateNone; cs < NumConnStates; cs++ {
		c.stateMasks[cs] = make([]uint64, words)
	}

	dirs := [2]Direction{In, Out}
	protoSet := make(map[packet.Protocol]bool)
	srcIv := make([][2]uint32, n)
	dstIv := make([][2]uint32, n)
	spIv := make([][2]uint32, n)
	dpIv := make([][2]uint32, n)
	for i := range rs.rules {
		r := &rs.rules[i]
		w, bit := i/64, uint64(1)<<(i%64)
		for d, dir := range dirs {
			if r.Direction != Both && r.Direction != dir {
				continue
			}
			if r.IsVPG() {
				// VPG rules match sealed envelopes inbound and the
				// cleartext traffic they will seal outbound.
				if dir == In {
					c.class[d][1][w] |= bit
				} else {
					c.class[d][0][w] |= bit
				}
			} else {
				c.class[d][0][w] |= bit
			}
		}
		if r.IsVPG() || r.Proto == 0 {
			c.protoAny[w] |= bit
		} else {
			protoSet[r.Proto] = true
		}
		if r.SrcPorts.Any() && r.DstPorts.Any() {
			c.portless[w] |= bit
		}
		for cs := StateNone; cs < NumConnStates; cs++ {
			if r.States == 0 || r.States.Has(cs) {
				c.stateMasks[cs][w] |= bit
			}
		}
		srcIv[i] = prefixInterval(r.Src)
		dstIv[i] = prefixInterval(r.Dst)
		spIv[i] = portInterval(r.SrcPorts)
		dpIv[i] = portInterval(r.DstPorts)
	}

	c.protoVals = make([]packet.Protocol, 0, len(protoSet))
	for p := range protoSet {
		c.protoVals = append(c.protoVals, p)
	}
	sort.Slice(c.protoVals, func(i, j int) bool { return c.protoVals[i] < c.protoVals[j] })
	c.protoMasks = make([]uint64, len(c.protoVals)*words)
	for pi, p := range c.protoVals {
		copy(c.protoMasks[pi*words:(pi+1)*words], c.protoAny)
		for i := range rs.rules {
			r := &rs.rules[i]
			if !r.IsVPG() && r.Proto == p {
				c.protoMasks[pi*words+i/64] |= 1 << (i % 64)
			}
		}
	}

	c.src = buildSegTable(words, srcIv, ^uint32(0))
	c.dst = buildSegTable(words, dstIv, ^uint32(0))
	c.srcPort = buildSegTable(words, spIv, 65535)
	c.dstPort = buildSegTable(words, dpIv, 65535)
	return c
}

// RuleSet returns the rule-set this matcher was compiled from.
func (c *CompiledSet) RuleSet() *RuleSet { return c.rs }

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

// Eval returns the verdict the linear RuleSet.Eval would return for
// the same packet and direction — identical on every Verdict field,
// including the *Rule pointer — and applies the same counter updates.
// The work is independent of where in the rule-set the match lands.
//
//barbican:noalloc
func (c *CompiledSet) Eval(s packet.Summary, dir Direction) Verdict {
	return c.EvalState(s, dir, StateNone)
}

// EvalState is Eval with a conntrack classification: the verdict the
// linear RuleSet.EvalState would return for the same packet, direction,
// and state, with identical counter updates.
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
