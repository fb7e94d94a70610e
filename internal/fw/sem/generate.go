package sem

import (
	"fmt"
	"math/rand"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// genVPGPercent is the percentage of generated rules that are VPG
// rules.
const genVPGPercent = 15

// GenOptions shapes Generate's output.
type GenOptions struct {
	// Rules is the rule count (0 = 24).
	Rules int
}

// Generate builds a random valid rule set from a seeded source, biased
// toward the collisions that stress first-match semantics: a narrow
// address pool so prefixes nest and overlap, frequent wildcards,
// adjacent port ranges, Both-direction rules, and a sprinkling of VPG
// rules so the sealed/cleartext class split is exercised. It is the
// property-based half of the verification story: CI feeds generated
// sets to VerifyCompiled and to the Lint-vs-walk differential to hunt
// for engine/walk divergence no hand-written case covers.
//
// The same *rand.Rand always yields the same rule set, so a failing
// seed is a reproducible bug report.
func Generate(r *rand.Rand, opts GenOptions) *fw.RuleSet {
	n := opts.Rules
	if n == 0 {
		n = 24
	}
	rules := make([]fw.Rule, 0, n)
	for i := 0; i < n; i++ {
		if r.Intn(100) < genVPGPercent {
			rules = append(rules, genVPGRule(r, i))
			continue
		}
		rules = append(rules, genPlainRule(r, i))
	}
	def := fw.Deny
	if r.Intn(2) == 0 {
		def = fw.Allow
	}
	return fw.MustRuleSet(def, rules...)
}

func genPlainRule(r *rand.Rand, i int) fw.Rule {
	rule := fw.Rule{
		Name:      fmt.Sprintf("gen-%d", i+1),
		Action:    genAction(r),
		Direction: genDirection(r),
		Src:       genPrefix(r),
		Dst:       genPrefix(r),
	}
	switch r.Intn(5) {
	case 0: // wildcard protocol, no ports
	case 1:
		rule.Proto = packet.ProtoICMP
	default:
		rule.Proto = packet.ProtoTCP
		if r.Intn(2) == 0 {
			rule.Proto = packet.ProtoUDP
		}
		if r.Intn(3) > 0 {
			rule.DstPorts = genPorts(r)
		}
		if r.Intn(4) == 0 {
			rule.SrcPorts = genPorts(r)
		}
	}
	return rule
}

func genVPGRule(r *rand.Rand, i int) fw.Rule {
	return fw.Rule{
		Name:      fmt.Sprintf("gen-%d", i+1),
		Action:    fw.Allow,
		Direction: genDirection(r),
		Src:       genPrefix(r),
		Dst:       genPrefix(r),
		VPG:       fmt.Sprintf("vpg-%d", r.Intn(3)+1),
	}
}

func genAction(r *rand.Rand) fw.Action {
	if r.Intn(2) == 0 {
		return fw.Allow
	}
	return fw.Deny
}

func genDirection(r *rand.Rand) fw.Direction {
	switch r.Intn(4) {
	case 0:
		return fw.Both
	case 1:
		return fw.Out
	default:
		return fw.In
	}
}

// genPrefix draws from a deliberately tiny 10.a.b.c pool so generated
// rules nest, shadow, and partially overlap instead of landing in
// disjoint space.
func genPrefix(r *rand.Rand) packet.Prefix {
	bits := []int{0, 8, 16, 24, 30, 32}[r.Intn(6)]
	if bits == 0 {
		return packet.Prefix{}
	}
	addr := uint32(10)<<24 | uint32(r.Intn(3))<<16 | uint32(r.Intn(4))<<8 | uint32(r.Intn(8))
	mask := ^uint32(0) << (32 - uint(bits))
	p, err := packet.NewPrefix(packet.IPFromUint32(addr&mask), bits)
	if err != nil {
		panic(err)
	}
	return p
}

// genPorts draws narrow, low port ranges so distinct rules share
// boundaries and split each other's intervals.
func genPorts(r *rand.Rand) fw.PortRange {
	lo := uint16(r.Intn(120))
	return fw.Ports(lo, lo+uint16(r.Intn(40)))
}
