package nic

import (
	"time"

	"barbican/internal/nic/conntrack"
)

// MatchPath classifies how a packet's verdict was produced, which is
// what the cost model charges for: no policy consulted at all, a
// rule-match (priced as a linear walk or a compiled lookup, per the
// profile), or a per-flow verdict-cache hit.
type MatchPath uint8

const (
	// MatchNone: no rule matching happened (no policy installed,
	// management bypass).
	MatchNone MatchPath = iota
	// MatchWalk: the packet was evaluated against the policy, priced
	// as a linear first-match walk or, under CompiledMatch, as one
	// compiled-classifier lookup.
	MatchWalk
	// MatchCacheHit: the verdict was replayed from the per-flow cache.
	MatchCacheHit

	// NumMatchPaths is the enumerator count, for exhaustiveness
	// checks; not a real path.
	NumMatchPaths
)

var matchPathNames = [NumMatchPaths]string{
	MatchNone:     "none",
	MatchWalk:     "walk",
	MatchCacheHit: "cache-hit",
}

func (m MatchPath) String() string {
	if int(m) < len(matchPathNames) {
		return matchPathNames[m]
	}
	return "invalid"
}

// Profile parameterizes a card's embedded processing model. Cost units
// are abstract; only the ratios and the capacity matter. The default
// profiles are calibrated so the simulated cards reproduce the paper's
// measured shapes (see DESIGN.md §4 and the calibration tests in
// internal/experiment).
type Profile struct {
	// Name identifies the model in results ("EFW", "ADF", ...).
	Name string
	// CapacityUnits is the embedded processor budget in cost units per
	// second. Zero models a wire-speed standard NIC.
	CapacityUnits float64
	// BaseCost is the fixed per-packet processing cost.
	BaseCost float64
	// PerRuleCost is the cost of examining one rule. The ADF pays more
	// per rule than the EFW (the paper attributes its lower throughput
	// to "a less efficient packet filtering algorithm" on identical
	// hardware).
	PerRuleCost float64
	// CryptoPerPacket and CryptoPerByte are the additional costs of
	// sealing or opening a VPG packet.
	CryptoPerPacket float64
	CryptoPerByte   float64
	// MaxQueue bounds the card's descriptor ring, in packets.
	MaxQueue int
	// LockupDeniedPPS, when positive, wedges the card once it denies
	// more than this many packets within one second — the EFW's
	// Deny-All failure the paper could not work around. A wedged card
	// drops all traffic for the rest of the run (the paper restarted the
	// firewall agent; the model has no restart).
	LockupDeniedPPS int
	// EagerVPGDecrypt, when true, decrypts sealed packets before rule
	// matching instead of on reaching the matching VPG rule. The real
	// ADF is lazy — the paper observed that inserting non-matching VPG
	// rules above the action rule costs almost nothing — and this knob
	// exists for the ablation that shows why that matters.
	EagerVPGDecrypt bool
	// CompiledMatch picks the cost formula only: when true, every rule
	// match costs the flat CompiledLookupCost instead of PerRuleCost ×
	// rules traversed. Every card computes its verdicts with the same
	// compiled matcher (fw.RuleSet.Match) whatever this flag says.
	CompiledMatch bool
	// CompiledLookupCost is the flat per-packet cost of one compiled-
	// classifier lookup. Used only when CompiledMatch is set.
	CompiledLookupCost float64
	// FlowCacheSize, when positive, gives the card an XDP-style
	// per-flow verdict cache with this many entries: a packet whose
	// 5-tuple flow already has a cached verdict pays CacheHitCost
	// instead of the match cost. The cache is invalidated on every
	// policy commit and degraded-mode transition.
	FlowCacheSize int
	// CacheHitCost is the per-packet match cost on a flow-cache hit.
	CacheHitCost float64
	// ConntrackEntries, when positive, gives the card a bounded
	// connection-tracking table (internal/nic/conntrack) consulted
	// whenever the installed policy carries state matchers. The bound
	// is the card's state memory budget divided by ConntrackEntryBytes.
	ConntrackEntries int
	// ConntrackEntryBytes is the card SRAM one tracked connection
	// occupies; ConntrackEntries × ConntrackEntryBytes is the memory
	// the table charges against the card.
	ConntrackEntryBytes int
	// ConntrackLookupCost is the per-packet cost of the conntrack
	// classification (hash lookup + state-machine advance), paid by
	// every packet of a stateful policy.
	ConntrackLookupCost float64
	// ConntrackInsertCost is the additional cost of creating a table
	// entry (including any eviction work) for an allowed new
	// connection.
	ConntrackInsertCost float64
	// ConntrackEvict selects the table's eviction policy
	// (conntrack.EvictLRU when zero).
	ConntrackEvict conntrack.EvictPolicy
}

// Standard returns the non-filtering wire-speed NIC profile (the paper's
// Intel EEPro 100 control).
func Standard() Profile {
	return Profile{Name: "Standard"}
}

// EFW returns the calibrated 3Com Embedded Firewall profile.
//
// The paper measured bandwidth with iperf, whose default protocol is
// TCP, so every data segment costs the card twice: once inbound and once
// for the outbound ACK. Calibration anchors (1518-byte frames, 100 Mbps
// => 8,127 fps; x = capacity / (2·(base + perRule·depth)) data pps):
//   - 64-rule available bandwidth ≈ 50 Mbps  => x(64) ≈ 4,100/s
//   - <20 rules: no significant loss         => x(19) ≥ 8,127/s
//   - 1-rule flood of ≈12,500/s => ~0 Mbps   => 2F·(base+1) ≈ capacity at F≈12.5k
//   - minimum allowed-flood rate at 64 rules ≈ 4,500/s (Figure 3b)
func EFW() Profile {
	return Profile{
		Name:            "EFW",
		CapacityUnits:   750_000,
		BaseCost:        29.5,
		PerRuleCost:     1.0,
		MaxQueue:        DefaultQueuePackets,
		LockupDeniedPPS: 1_000,
	}
}

// ADF returns the calibrated Autonomic Distributed Firewall profile:
// identical hardware budget to the EFW, a costlier per-rule match, and
// VPG cryptography.
//
// Calibration anchors:
//   - 64-rule available bandwidth ≈ 33 Mbps  => capacity/(2·(base+1.78·64)) ≈ 2,700/s
//   - single-VPG bandwidth well below a standard rule-set, with a
//     near-linear bandwidth/flood-rate relation (Figure 3a)
func ADF() Profile {
	return Profile{
		Name:            "ADF",
		CapacityUnits:   750_000,
		BaseCost:        27,
		PerRuleCost:     1.78,
		CryptoPerPacket: 8,
		CryptoPerByte:   0.05,
		MaxQueue:        DefaultQueuePackets,
	}
}

// NextGen returns a hypothetical next-generation embedded firewall — the
// paper's closing hope: "new embedded firewall devices that have
// sufficient tolerance to simple packet flood attacks". It models
// purpose-built filtering hardware (the design 3Com rejected on cost
// grounds, §2) the way modern cards actually escaped the depth cliff:
// each rule match is priced as one depth-independent classifier lookup
// (CompiledMatch) and repeated flows short-circuit through a per-flow
// verdict cache, on an order of magnitude more capacity.
//
// Calibration anchors (same 1518-byte/TCP accounting as EFW):
//   - compiled lookup ≈ 6 units: a handful of binary-search probes and
//     mask words, ≈ a 6-rule walk at EFW per-rule cost — paid at ANY
//     depth, so bandwidth is flat from 1 to 512 rules
//   - cache hit ≈ 1.5 units: one hash + one key compare
//   - worst case (all misses) 2F·(29.5+6) ≤ 7.5M sustains F ≈ 105k
//     data pps — above the 100 Mbps wire's 64-byte maximum of ≈81k pps,
//     so no flood the testbed can generate finds a DoS rate (Fig. 3
//     rerun, EXT1)
//   - PerRuleCost stays at the EFW's 1.0 as the reference cost of the
//     equivalent linear walk (comparison output only; a CompiledMatch
//     profile is never charged it)
func NextGen() Profile {
	return Profile{
		Name:               "NextGenFW",
		CapacityUnits:      7_500_000,
		BaseCost:           29.5,
		PerRuleCost:        1.0,
		MaxQueue:           DefaultQueuePackets,
		CompiledMatch:      true,
		CompiledLookupCost: 6,
		FlowCacheSize:      4096,
		CacheHitCost:       1.5,
	}
}

// Stateful returns a hypothetical stateful embedded firewall: EFW-class
// capacity and rule costs (without the Deny-All lockup defect), plus a
// connection-tracking table bounded by card memory. It is the profile
// the stateflood experiment family measures: the same processor budget
// as the EFW, so its *packet-rate* DoS threshold is comparable, but a
// new, much cheaper exhaustion axis — table state — that the stateless
// cards simply do not have.
//
// Calibration anchors:
//   - 128 KiB of state SRAM at 128 B/entry bounds the table at 1,024
//     connections — the same order as early commercial stateful
//     offloads, and small enough that the testbed's flood generator
//     can exhaust it at rates far below the packet-rate DoS threshold
//   - conntrack lookup ≈ 2 units (one hash probe + state advance) and
//     insert ≈ 4 units (slot claim + optional eviction): the netfilter
//     measurement literature puts conntrack at a small constant per
//     packet, dwarfed by the 29.5-unit base cost
//   - packet-rate DoS stays EFW-shaped: 2F·(29.5+2+d) ≈ capacity
func Stateful() Profile {
	return Profile{
		Name:                "StatefulFW",
		CapacityUnits:       750_000,
		BaseCost:            29.5,
		PerRuleCost:         1.0,
		MaxQueue:            DefaultQueuePackets,
		CompiledMatch:       true,
		CompiledLookupCost:  6,
		FlowCacheSize:       1024,
		CacheHitCost:        1.5,
		ConntrackEntries:    1024,
		ConntrackEntryBytes: 128,
		ConntrackLookupCost: 2.0,
		ConntrackInsertCost: 4.0,
		ConntrackEvict:      conntrack.EvictLRU,
	}
}

// ConntrackMemBytes is the card memory the state table charges: the
// entry bound times the per-entry footprint.
func (p Profile) ConntrackMemBytes() int {
	return p.ConntrackEntries * p.ConntrackEntryBytes
}

// matchCost is the rule-matching component of a packet's cost, by how
// the verdict was produced.
//
//barbican:noalloc
func (p Profile) matchCost(path MatchPath, rulesTraversed int) float64 {
	switch path {
	case MatchWalk:
		if p.CompiledMatch {
			return p.CompiledLookupCost
		}
		return p.PerRuleCost * float64(rulesTraversed)
	case MatchCacheHit:
		return p.CacheHitCost
	case MatchNone, NumMatchPaths:
	}
	return 0
}

// CostPath returns the processing cost of one packet whose verdict came
// via the given match path, having traversed the given number of rules
// (meaningful for MatchWalk on a linear profile), optionally paying
// crypto for cryptoBytes.
//
//barbican:noalloc
func (p Profile) CostPath(path MatchPath, rulesTraversed, cryptoBytes int) float64 {
	base, match, crypto := p.CostPartsPath(path, rulesTraversed, cryptoBytes)
	return base + match + crypto
}

// Cost is the exported cost model for the rule-matched path, for
// explain-style tooling, lint predictions, and attribution exports. On
// a CompiledMatch profile it is flat in rulesTraversed.
func (p Profile) Cost(rulesTraversed, cryptoBytes int) float64 {
	return p.CostPath(MatchWalk, rulesTraversed, cryptoBytes)
}

// CostPartsPath decomposes CostPath into its phases — fixed base,
// rule-match (walk, compiled lookup, or cache hit), and crypto — for
// the processor's cost account (Processor.Charge). CostPath is their
// sum, base + match + crypto in that order, which is what lets the
// account attribute 100% of the processor's consumed units.
//
//barbican:noalloc
func (p Profile) CostPartsPath(path MatchPath, rulesTraversed, cryptoBytes int) (base, match, crypto float64) {
	base = p.BaseCost
	match = p.matchCost(path, rulesTraversed)
	if cryptoBytes > 0 {
		crypto = p.CryptoPerPacket + p.CryptoPerByte*float64(cryptoBytes)
	}
	return base, match, crypto
}

// ServiceTime converts a cost to the time the embedded processor
// spends on it. A zero-capacity (wire speed) profile serves instantly.
func (p Profile) ServiceTime(cost float64) time.Duration {
	if p.CapacityUnits <= 0 || cost <= 0 {
		return 0
	}
	return time.Duration(cost / p.CapacityUnits * float64(time.Second))
}
