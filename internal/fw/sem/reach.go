package sem

import (
	"math/bits"
	"slices"

	"barbican/internal/fw"
)

// Lint is the policy linter. It decides reachability, shadowing,
// redundancy and conflicts by walking the exact region decomposition
// once per traffic class and connection state, and returns findings
// ordered by rule (per rule: the unreachable-class finding, or the
// conflicts by earlier-rule position followed by the depth note).
// depthWarn, when positive, adds an informational note for every
// reachable rule deeper than that position.
//
// Every answer is a proof over the whole packet space:
//
//   - Reachability is decided over every atomic region under every
//     connection state, so coverage through a different traffic class
//     (a plain allow-out rule swallowing the cleartext packets a VPG
//     rule would seal) or through state (a stateless deny ahead of a
//     "state new" allow) is detected.
//   - The covering list of an unreachable rule is the set of rules
//     that actually take its packets (its "winners").
//   - A conflict is reported only when the earlier opposite-action
//     rule genuinely decides part of this rule's match space. An
//     overlap whose every packet is taken by an even earlier rule is
//     not order dependence and is not reported. The exception pattern
//     (a later general rule containing an earlier specific one) is
//     intentional ordering and is not reported either.
func Lint(rs *fw.RuleSet, depthWarn int) []Finding {
	w := lintWalk(rs)
	t := w.t
	var findings []Finding
	for i := 1; i <= t.n; i++ {
		ri := &t.rules[i-1]
		winners := w.winners(i)
		if !hasBit(w.reached, i) {
			findings = append(findings, classifyUnreachable(t, i, winners))
			continue
		}
		for _, j := range winners {
			rj := &t.rules[j-1]
			if rj.Action == ri.Action || coversExact(ri, rj) {
				continue
			}
			findings = append(findings, Finding{Kind: FindingConflict, Rule: i, By: j})
		}
		if depthWarn > 0 && i > depthWarn {
			findings = append(findings, Finding{Kind: FindingDepth, Rule: i, Depth: i})
		}
	}
	return findings
}

// lintWalk runs the single walk over every traffic class under every
// connection state.
func lintWalk(rs *fw.RuleSet) *lintWalker {
	sp := newSpace(rs)
	t := sp.sets[0]
	w := &lintWalker{
		sp:      sp,
		t:       t,
		visited: nodeSet{stride: 1 + t.words},
		reached: make([]uint64, t.words),
		win:     make([]uint64, t.n*t.words),
	}
	for level := range w.child {
		w.child[level] = make([]uint64, t.words)
	}
	// A rule with state matchers matches only under the states it
	// lists; a stateless rule matches under every state, StateNone
	// included. Stateless sets give the same start masks under every
	// state, so the visited set absorbs the repeats.
	live := make([]uint64, t.words)
	for cs := fw.StateNone; cs < fw.NumConnStates; cs++ {
		clear(live)
		for i := range t.rules {
			if r := &t.rules[i]; r.States == 0 || r.States.Has(cs) {
				live[i/64] |= 1 << (i % 64)
			}
		}
		for _, c := range classes {
			m := t.startMask(c)
			andMasks(m, m, live)
			w.enter(axesFor(c), 0, m)
		}
	}
	return w
}

// classifyUnreachable maps an unreachable rule and its winners to the
// finding vocabulary: one decisive winner gives the shadowed/redundant
// form naming it; several winners give the union form, redundant when
// removal is provably semantics-free (every winner applies the same
// action) and unreachable otherwise.
func classifyUnreachable(t *setTables, i int, winners []int) Finding {
	ri := &t.rules[i-1]
	if len(winners) == 1 {
		kind := FindingRedundant
		if t.rules[winners[0]-1].Action != ri.Action {
			kind = FindingShadowed
		}
		return Finding{Kind: kind, Rule: i, By: winners[0]}
	}
	kind := FindingRedundant
	for _, j := range winners {
		if t.rules[j-1].Action != ri.Action {
			kind = FindingUnreachable
			break
		}
	}
	return Finding{Kind: kind, Rule: i, Covering: winners}
}

// lintWalker is the single deduplicated walk behind Lint. At each
// region (leaf) the first live rule f decides; f is marked reached and
// ORed into the winner set of every live rule. Both results are unions
// of per-leaf contributions, and a node's subtree is a function of its
// remaining axes and live mask alone, so visiting each distinct
// (axes, level, mask) node once — across classes and states — is exact.
type lintWalker struct {
	sp      *space
	t       *setTables
	visited nodeSet
	child   [numAxes][]uint64 // per-level child mask scratch
	reached []uint64          // rules that decide at least one region
	win     []uint64          // row i-1: rules deciding a region where rule i matches
}

// enter visits the node unless its mask is empty or it was visited
// before.
func (w *lintWalker) enter(axes []int, level int, mask []uint64) {
	if maskEmpty(mask) {
		return
	}
	if !w.visited.add(uint64(len(axes))<<8|uint64(level), mask) {
		return
	}

	if level == len(axes) {
		f := firstBit(mask) - 1 // mask is non-empty
		fword, fbit := f/64, uint64(1)<<(f%64)
		w.reached[fword] |= fbit
		for wd, x := range mask {
			for x != 0 {
				i := wd*64 + bits.TrailingZeros64(x)
				w.win[i*w.t.words+fword] |= fbit
				x &= x - 1
			}
		}
		return
	}
	axis := axes[level]
	child := w.child[level]
	for k := range w.sp.bounds[axis] {
		andMasks(child, mask, w.t.segMask(axis, k))
		w.enter(axes, level+1, child)
	}
}

// nodeSet is the walk's set of visited nodes, each keyed by one head
// word (axes and level) and its live mask: an open-addressed table with
// linear probing, a fixed hash, and the keys back to back in chunks.
// A Go map's growth follows its per-map hash seed, so Lint's
// allocation count would vary from run to run; this set grows on its
// key count alone.
type nodeSet struct {
	stride int        // words per key: the head word and the mask
	n      int        // keys in the set
	chunks [][]uint64 // the keys, stride words each, chunkKeys per chunk
	slots  []int32    // 1 + key index, 0 when empty; a power of two long
	shift  uint       // 64 - log2(len(slots)): a hash's top bits pick the home slot
}

// chunkKeys is how many keys one chunk of nodeSet holds. Chunks are
// never copied, so the set allocates its keys' size and no more.
const chunkKeys = 256

func (s *nodeSet) key(j int) []uint64 {
	o := j % chunkKeys * s.stride
	return s.chunks[j/chunkKeys][o : o+s.stride]
}

// add inserts the node and reports whether it was not yet in the set.
func (s *nodeSet) add(head uint64, mask []uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	limit := len(s.slots) - 1
	for i := s.home(head, mask); ; i = (i + 1) & limit {
		j := int(s.slots[i]) - 1
		if j < 0 {
			if s.n%chunkKeys == 0 {
				s.chunks = append(s.chunks, make([]uint64, 0, chunkKeys*s.stride))
			}
			c := &s.chunks[len(s.chunks)-1]
			*c = append(append(*c, head), mask...)
			s.n++
			s.slots[i] = int32(s.n)
			return true
		}
		if k := s.key(j); k[0] == head && slices.Equal(k[1:], mask) {
			return false
		}
	}
}

// home is the node's first probe slot: a multiply-xorshift hash over
// its words, whose top bits index the table.
func (s *nodeSet) home(head uint64, mask []uint64) int {
	h := head * 0x9e3779b97f4a7c15
	for _, x := range mask {
		h ^= h >> 29
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	return int(h >> s.shift)
}

// grow doubles the table (to 64 slots at first) and re-places every
// key.
func (s *nodeSet) grow() {
	size := max(64, 2*len(s.slots))
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	limit := size - 1
	for j := 0; j < s.n; j++ {
		k := s.key(j)
		i := s.home(k[0], k[1:])
		for s.slots[i] != 0 {
			i = (i + 1) & limit
		}
		s.slots[i] = int32(j + 1)
	}
}

// winners returns, ascending, the rules other than i (1-based) that
// decide at least one region in which rule i matches: the rules that
// take i's packets. For an unreachable i this is its exact covering
// set; for a reachable i it is every rule that beats it somewhere.
func (w *lintWalker) winners(i int) []int {
	var out []int
	row := w.win[(i-1)*w.t.words : i*w.t.words]
	for wd, x := range row {
		for x != 0 {
			if j := wd*64 + bits.TrailingZeros64(x) + 1; j != i {
				out = append(out, j)
			}
			x &= x - 1
		}
	}
	return out
}

// coversExact reports whether rule a matches every packet rule b
// matches, under every connection state, decided class by class over
// the modeled space (so a plain allow-out rule can cover a VPG rule's
// outbound cleartext).
func coversExact(a, b *fw.Rule) bool {
	if a.States != 0 && (b.States == 0 || b.States&^a.States != 0) {
		return false
	}
	for _, c := range classes {
		if !b.AppliesTo(c.Dir, c.Sealed) || (!c.HasPorts && !b.MatchesPortless()) {
			continue
		}
		if !a.AppliesTo(c.Dir, c.Sealed) || (!c.HasPorts && !a.MatchesPortless()) {
			return false
		}
		for _, axis := range axesFor(c) {
			sa, sb := ruleSpan(a, axis), ruleSpan(b, axis)
			if sa.Lo > sb.Lo || sa.Hi < sb.Hi {
				return false
			}
		}
	}
	return true
}
