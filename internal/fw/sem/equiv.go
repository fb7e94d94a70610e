package sem

import (
	"fmt"
	"math/big"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// RegionClass classifies the verdict relation of one atomic region
// between two rule sets (or two matcher implementations of one set).
type RegionClass int

// Region verdict classes.
const (
	// RegionUnchanged: same action, same deciding rule position.
	RegionUnchanged RegionClass = iota
	// RegionRedecided: same action, but a different rule (or the
	// default action) decides it — invisible to enforcement, visible
	// to attribution, counters, and depth cost.
	RegionRedecided
	// RegionAllowToDeny: packets admitted under the first set are
	// dropped under the second.
	RegionAllowToDeny
	// RegionDenyToAllow: packets dropped under the first set are
	// admitted under the second — the class that widens exposure.
	RegionDenyToAllow
	// NumRegionClasses sizes by-class arrays; not a real class.
	NumRegionClasses
)

// String names the class.
func (c RegionClass) String() string {
	//barbican:exhaustive
	switch c {
	case RegionUnchanged:
		return "unchanged"
	case RegionRedecided:
		return "redecided"
	case RegionAllowToDeny:
		return "allow-to-deny"
	case RegionDenyToAllow:
		return "deny-to-allow"
	default:
		return fmt.Sprintf("regionclass(%d)", int(c))
	}
}

// RegionVerdict is the verdict a rule set assigns to every packet of
// one atomic region: the action and the 1-based deciding rule index
// (0 = default action), the same convention as fw.Verdict.
type RegionVerdict struct {
	Action fw.Action
	Index  int
}

// String renders "allow (rule 3)" or "deny (default)".
func (v RegionVerdict) String() string {
	if v.Index == 0 {
		return fmt.Sprintf("%v (default)", v.Action)
	}
	return fmt.Sprintf("%v (rule %d)", v.Action, v.Index)
}

func classify(a, b RegionVerdict) RegionClass {
	if a.Action == b.Action {
		if a.Index == b.Index {
			return RegionUnchanged
		}
		return RegionRedecided
	}
	if a.Action == fw.Allow {
		return RegionAllowToDeny
	}
	return RegionDenyToAllow
}

// RegionDiff is one changed region with a concrete witness packet.
type RegionDiff struct {
	Region Region
	Class  RegionClass
	// From and To are the verdicts under the first and second set.
	From, To RegionVerdict
	// Packet and Dir are a witness inside the region.
	Packet packet.Summary
	Dir    fw.Direction
}

// String renders one witness line.
func (d RegionDiff) String() string {
	return fmt.Sprintf("%s: %v -> %v  witness %v %v [%v]",
		d.Class, d.From, d.To, d.Dir, d.Packet, d.Region)
}

// DiffOptions configures Diff.
type DiffOptions struct {
	// MaxWitnesses bounds the witness list (0 = 8). The walker yields
	// at most one witness per discrete traffic class.
	MaxWitnesses int
	// StrictIndex makes RegionRedecided count against equivalence:
	// two sets are then equivalent only when every packet is decided
	// by the same rule position, not merely given the same action.
	StrictIndex bool
	// MaxRegions bounds the number of atomic regions the walker may
	// materialize before giving up with an error (0 = 10,000,000).
	// Memoized subtree reuse does not count against the budget.
	MaxRegions uint64
}

// DiffResult is the exact semantic comparison of two rule sets over
// the entire modeled packet space.
type DiffResult struct {
	// Equivalent reports verdict equality on every packet: identical
	// actions everywhere (and identical deciding rules, with
	// StrictIndex).
	Equivalent bool
	// ByClass counts packets per verdict-relation class. Counts are
	// exact over the modeled universe: direction × sealed × port
	// presence × protocol × addresses (× ports for ported packets).
	ByClass [NumRegionClasses]*big.Int
	// ChangedPackets is ByClass[AllowToDeny] + ByClass[DenyToAllow].
	ChangedPackets *big.Int
	// RedecidedPackets is ByClass[RegionRedecided].
	RedecidedPackets *big.Int
	// TotalPackets is the size of the modeled universe.
	TotalPackets *big.Int
	// ChangedRegions counts the distinct atomic regions whose verdict
	// relation is not RegionUnchanged.
	ChangedRegions uint64
	// Witnesses holds up to MaxWitnesses concrete changed regions.
	Witnesses []RegionDiff
}

const (
	defaultDiffRegions   = 10_000_000
	defaultVerifyRegions = 4_000_000
	defaultMaxWitnesses  = 8
)

// universeSize returns the number of packet tuples in the modeled
// space: for each of the 8 classes, the product of its axis widths.
func universeSize() *big.Int {
	total := new(big.Int)
	for _, c := range classes {
		p := big.NewInt(1)
		for _, axis := range axesFor(c) {
			w := new(big.Int).SetUint64(uint64(axisMax[axis]) + 1)
			p.Mul(p, w)
		}
		total.Add(total, p)
	}
	return total
}

// diffNode is one memoized subtree result: packet counts per class
// over the remaining axes, changed-region count, and (when the
// subtree contains a changed region) the axis spans of one changed
// path for witness reconstruction.
type diffNode struct {
	byClass [NumRegionClasses]big.Int
	regions uint64 // changed regions in the subtree
	suffix  []fw.Span
	sClass  RegionClass
	sFrom   RegionVerdict
	sTo     RegionVerdict
}

func (n *diffNode) changed() bool { return n.suffix != nil }

// actionChange reports whether the class is an enforcement change
// (not a mere attribution change). Witness selection prefers these.
func actionChange(c RegionClass) bool {
	return c == RegionAllowToDeny || c == RegionDenyToAllow
}

type diffWalker struct {
	sp     *space
	a, b   *setTables
	memo   map[string]*diffNode
	budget uint64
	work   uint64
}

// Diff computes the exact semantic difference from rule set a (V1) to
// rule set b (V2): which packets change verdict, how many, and
// concrete witnesses. It is the policy-push question "what does this
// update actually do on the wire?" answered by proof.
func Diff(a, b *fw.RuleSet, opts DiffOptions) (*DiffResult, error) {
	if a.Stateful() || b.Stateful() {
		// Connection state is a conntrack attribute, not a packet
		// coordinate: the region decomposition cannot represent it, so
		// an answer here would silently treat stateful rules as
		// always-matchable. Refuse rather than prove the wrong claim.
		return nil, fmt.Errorf("sem: stateful rule sets are outside the packet-space model (state matchers present)")
	}
	if opts.MaxRegions == 0 {
		opts.MaxRegions = defaultDiffRegions
	}
	if opts.MaxWitnesses == 0 {
		opts.MaxWitnesses = defaultMaxWitnesses
	}
	sp := newSpace(a, b)
	w := &diffWalker{sp: sp, a: sp.sets[0], b: sp.sets[1],
		memo: make(map[string]*diffNode), budget: opts.MaxRegions}

	res := &DiffResult{
		ChangedPackets:   new(big.Int),
		RedecidedPackets: new(big.Int),
		TotalPackets:     universeSize(),
	}
	for i := range res.ByClass {
		res.ByClass[i] = new(big.Int)
	}
	for _, c := range classes {
		axes := axesFor(c)
		node, err := w.recurse(c, axes, 0, w.a.startMask(c), w.b.startMask(c))
		if err != nil {
			return nil, err
		}
		for i := range res.ByClass {
			res.ByClass[i].Add(res.ByClass[i], &node.byClass[i])
		}
		res.ChangedRegions += node.regions
		if node.changed() && len(res.Witnesses) < opts.MaxWitnesses {
			region := regionFor(c, node.suffix)
			pkt, dir := region.Witness()
			res.Witnesses = append(res.Witnesses, RegionDiff{
				Region: region, Class: node.sClass,
				From: node.sFrom, To: node.sTo,
				Packet: pkt, Dir: dir,
			})
		}
	}
	res.ChangedPackets.Add(res.ByClass[RegionAllowToDeny], res.ByClass[RegionDenyToAllow])
	res.RedecidedPackets.Set(res.ByClass[RegionRedecided])
	res.Equivalent = res.ChangedPackets.Sign() == 0 &&
		(!opts.StrictIndex || res.RedecidedPackets.Sign() == 0)
	return res, nil
}

// diffGroup is one mask-distinct child during a level expansion.
type diffGroup struct {
	repSeg int
	width  uint64
	mA, mB []uint64
}

func (w *diffWalker) recurse(c class, axes []int, level int, mA, mB []uint64) (*diffNode, error) {
	// Leaf: all axes chosen; the first live bit per set is the
	// first-match rule for every packet in the region.
	if level == len(axes) {
		w.work++
		if w.work > w.budget {
			return nil, fmt.Errorf("sem: region budget %d exceeded (raise MaxRegions)", w.budget)
		}
		return w.leaf(mA, mB), nil
	}

	key := w.key(len(axes), level, mA, mB)
	if n, ok := w.memo[key]; ok {
		return n, nil
	}

	// Both sets dead: every deeper region takes the two default
	// actions, so the whole subtree collapses to one outcome times
	// the product of the remaining axis widths.
	if maskEmpty(mA) && maskEmpty(mB) {
		n := w.emptyTail(c, axes, level)
		w.memo[key] = n
		return n, nil
	}

	groups := w.groups(axes[level], mA, mB)
	n := &diffNode{}
	for _, g := range groups {
		child, err := w.recurse(c, axes, level+1, g.mA, g.mB)
		if err != nil {
			return nil, err
		}
		width := new(big.Int).SetUint64(g.width)
		var tmp big.Int
		for i := range n.byClass {
			tmp.Mul(&child.byClass[i], width)
			n.byClass[i].Add(&n.byClass[i], &tmp)
		}
		n.regions += child.regions
		if child.changed() && (n.suffix == nil || (actionChange(child.sClass) && !actionChange(n.sClass))) {
			n.suffix = append([]fw.Span{w.sp.segSpan(axes[level], g.repSeg)}, child.suffix...)
			n.sClass, n.sFrom, n.sTo = child.sClass, child.sFrom, child.sTo
		}
	}
	w.memo[key] = n
	return n, nil
}

// leaf classifies one fully-decomposed region.
func (w *diffWalker) leaf(mA, mB []uint64) *diffNode {
	va := RegionVerdict{Index: firstBit(mA)}
	va.Action = w.a.verdictOf(va.Index)
	vb := RegionVerdict{Index: firstBit(mB)}
	vb.Action = w.b.verdictOf(vb.Index)
	cls := classify(va, vb)
	n := &diffNode{}
	n.byClass[cls].SetUint64(1)
	if cls != RegionUnchanged {
		n.regions = 1
		n.suffix = []fw.Span{}
		n.sClass, n.sFrom, n.sTo = cls, va, vb
	}
	return n
}

// emptyTail is the collapsed subtree when no rule of either set is
// alive: default action vs default action over every remaining value.
func (w *diffWalker) emptyTail(c class, axes []int, level int) *diffNode {
	va := RegionVerdict{Action: w.a.rs.Default()}
	vb := RegionVerdict{Action: w.b.rs.Default()}
	cls := classify(va, vb)
	count := big.NewInt(1)
	for _, axis := range axes[level:] {
		count.Mul(count, new(big.Int).SetUint64(uint64(axisMax[axis])+1))
	}
	n := &diffNode{}
	n.byClass[cls].Set(count)
	if cls != RegionUnchanged {
		n.regions = 1
		n.suffix = make([]fw.Span, 0, len(axes)-level)
		for _, axis := range axes[level:] {
			n.suffix = append(n.suffix, fw.Span{Lo: 0, Hi: axisMax[axis]})
		}
		n.sClass, n.sFrom, n.sTo = cls, va, vb
	}
	return n
}

// groups expands one axis under the live masks, merging segments with
// identical (maskA, maskB) pairs. Groups are ordered by first segment
// so walks are deterministic.
func (w *diffWalker) groups(axis int, mA, mB []uint64) []diffGroup {
	var out []diffGroup
	index := make(map[string]int)
	segs := len(w.sp.bounds[axis])
	var key []byte
	for k := 0; k < segs; k++ {
		cA := make([]uint64, w.a.words)
		andMasks(cA, mA, w.a.segMask(axis, k))
		cB := make([]uint64, w.b.words)
		andMasks(cB, mB, w.b.segMask(axis, k))
		key = key[:0]
		key = appendMaskKey(key, cA)
		key = appendMaskKey(key, cB)
		if i, ok := index[string(key)]; ok {
			out[i].width += w.sp.segWidth(axis, k)
			continue
		}
		index[string(key)] = len(out)
		out = append(out, diffGroup{repSeg: k, width: w.sp.segWidth(axis, k), mA: cA, mB: cB})
	}
	return out
}

// key builds the memo key: axis-list length, level, and both masks.
func (w *diffWalker) key(axesLen, level int, mA, mB []uint64) string {
	key := make([]byte, 0, 2+8*(len(mA)+len(mB)))
	key = append(key, byte(axesLen), byte(level))
	key = appendMaskKey(key, mA)
	key = appendMaskKey(key, mB)
	return string(key)
}
