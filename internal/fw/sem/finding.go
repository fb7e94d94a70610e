package sem

import (
	"fmt"
	"strings"
)

// The paper's operational recommendations pull in opposite directions:
// "place bandwidth-sensitive traffic early in the rule-set" but also
// "deny potential attack sources early". Lint gives a policy author
// the static view needed to follow both: rules that can never fire,
// order-dependent conflicts, and the traversal depth each rule costs.

// FindingKind classifies a lint finding.
type FindingKind int

// Finding kinds.
const (
	// FindingShadowed: a single earlier rule with a different action
	// takes every packet this rule matches; the rule can never take
	// effect and the policy likely does not do what its author intended.
	FindingShadowed FindingKind = iota + 1
	// FindingRedundant: earlier rules with the same action take every
	// packet this rule matches (one rule, or the union of several);
	// removing it shortens every traversal that passes it.
	FindingRedundant
	// FindingConflict: an earlier rule with the opposite action decides
	// part of this rule's match space without this rule containing it.
	// The packets in the overlap take the earlier action; the partial
	// overlap makes that order dependence easy to miss when editing
	// either rule.
	FindingConflict
	// FindingUnreachable: earlier rules with mixed actions jointly take
	// every packet this rule matches, so it never fires — but unlike
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

// Severity ranks a finding for exit-code and display purposes.
type Severity int

// Severity levels, ascending.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return "severity(?)"
	}
}

// Severity maps a finding kind to its severity: order-dependence bugs
// (conflict, shadowed, unreachable) are errors, removable redundancy is
// a warning, and depth notes are informational.
func (k FindingKind) Severity() Severity {
	switch k {
	case FindingConflict, FindingShadowed, FindingUnreachable:
		return SeverityError
	case FindingRedundant:
		return SeverityWarning
	case FindingDepth:
		return SeverityInfo
	default:
		return SeverityError
	}
}

// Finding is one lint result.
type Finding struct {
	Kind FindingKind
	// Rule is the 1-based index of the affected rule.
	Rule int
	// By is the 1-based index of the covering or conflicting rule, when a
	// single rule is decisive (shadowed, redundant, conflicting).
	By int
	// Covering lists the 1-based indices of the earlier rules that
	// jointly take every packet of an unreachable rule, when no single
	// rule does (redundant or unreachable).
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
