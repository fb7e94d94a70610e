package fw

import (
	"fmt"
	"strings"

	"barbican/internal/packet"
)

// The paper's operational recommendations pull in opposite directions:
// "place bandwidth-sensitive traffic early in the rule-set" but also
// "deny potential attack sources early". This file provides the static
// analysis a policy author needs to follow them: shadowing/redundancy
// detection (rules that can never fire) and a traversal-cost report
// driven by observed match statistics.

// FindingKind classifies an analysis finding.
type FindingKind int

// Finding kinds.
const (
	// FindingShadowed: an earlier rule with a different action covers
	// this rule's entire match space; the rule can never take effect and
	// the policy likely does not do what its author intended.
	FindingShadowed FindingKind = iota + 1
	// FindingRedundant: an earlier rule with the same action covers this
	// rule entirely (a single rule, or — from Lint — the union of several);
	// removing it shortens every traversal that passes it.
	FindingRedundant
	// FindingConflict: an earlier rule with the opposite action overlaps
	// this rule without either containing the other. The packets in the
	// overlap take the earlier action; the partial overlap makes that
	// order dependence easy to miss when editing either rule.
	FindingConflict
	// FindingUnreachable: the union of earlier rules with mixed actions
	// covers this rule entirely, so it never fires — but unlike
	// FindingRedundant, deleting it is not obviously semantics-free to a
	// reader, because no single earlier rule explains it.
	FindingUnreachable
	// FindingDepth: the rule sits deeper than the configured threshold;
	// per Fig. 2 every packet that traverses to depth d pays
	// BaseCost + d x PerRuleCost on the card, so depth is bandwidth.
	FindingDepth
)

// String names the finding kind.
func (k FindingKind) String() string {
	//barbican:exhaustive
	switch k {
	case FindingShadowed:
		return "shadowed"
	case FindingRedundant:
		return "redundant"
	case FindingConflict:
		return "conflicting"
	case FindingUnreachable:
		return "unreachable"
	case FindingDepth:
		return "deep"
	default:
		return fmt.Sprintf("finding(%d)", int(k))
	}
}

// Finding is one analysis result.
type Finding struct {
	Kind FindingKind
	// Rule is the 1-based index of the affected rule.
	Rule int
	// By is the 1-based index of the covering or conflicting rule, when a
	// single rule is decisive (shadowed, redundant, conflicting).
	By int
	// Covering lists the 1-based indices of the earlier rules whose union
	// covers this rule, for Lint's redundant/unreachable findings.
	Covering []int
	// Depth is the rule's position, for FindingDepth.
	Depth int
}

// String renders the finding.
func (f Finding) String() string {
	switch f.Kind {
	case FindingConflict:
		return fmt.Sprintf("rule %d conflicts with rule %d (partial overlap, opposite actions; rule %d wins the overlap)", f.Rule, f.By, f.By)
	case FindingDepth:
		return fmt.Sprintf("rule %d sits at depth %d; packets matching it pay the full traversal cost (Fig. 2)", f.Rule, f.Depth)
	default:
		if len(f.Covering) > 0 {
			return fmt.Sprintf("rule %d is %v (covered by the union of rules %s)", f.Rule, f.Kind, joinInts(f.Covering))
		}
		return fmt.Sprintf("rule %d is %v (covered by rule %d)", f.Rule, f.Kind, f.By)
	}
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// Analyze reports shadowed and redundant rules: any rule whose entire
// match space is covered by a single earlier rule. (Combinations of
// earlier rules that jointly cover a later one are not detected; this is
// the classic pairwise analysis.)
func (rs *RuleSet) Analyze() []Finding {
	var findings []Finding
	for i := 1; i < len(rs.rules); i++ {
		for j := 0; j < i; j++ {
			if covers(&rs.rules[j], &rs.rules[i]) {
				kind := FindingRedundant
				if rs.rules[j].Action != rs.rules[i].Action {
					kind = FindingShadowed
				}
				findings = append(findings, Finding{Kind: kind, Rule: i + 1, By: j + 1})
				break // first covering rule is the decisive one
			}
		}
	}
	return findings
}

// covers reports whether every packet rule b matches is also matched by
// rule a (a precedes b, so b can then never fire).
func covers(a, b *Rule) bool {
	// Direction: a must apply whenever b does.
	if a.Direction != Both && a.Direction != b.Direction {
		return false
	}
	// VPG and plain rules match disjoint traffic classes (sealed vs
	// cleartext inbound); only like covers like. For outbound, a VPG
	// rule matches cleartext, but conservatively we still require like
	// kinds.
	if a.IsVPG() != b.IsVPG() {
		return false
	}
	if !a.IsVPG() {
		// Protocol: a must be wildcard or equal to b's (b wildcard needs
		// a wildcard).
		if a.Proto != 0 && a.Proto != b.Proto {
			return false
		}
		if !portCovers(a.SrcPorts, b.SrcPorts) || !portCovers(a.DstPorts, b.DstPorts) {
			return false
		}
	}
	return prefixCovers(a.Src, b.Src) && prefixCovers(a.Dst, b.Dst)
}

// prefixCovers reports whether prefix a contains all of prefix b.
func prefixCovers(a, b packet.Prefix) bool {
	if a.Bits > b.Bits {
		return false
	}
	return a.Contains(b.Addr)
}

// portCovers reports whether range a admits every packet range b admits.
// A ported rule matches only packets that have ports, so a non-any a
// cannot cover an any b (which also matches portless packets).
func portCovers(a, b PortRange) bool {
	if a.Any() {
		return true
	}
	if b.Any() {
		return false
	}
	return a.Lo <= b.Lo && b.Hi <= a.Hi
}
