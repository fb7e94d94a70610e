package fw

import "barbican/internal/packet"

// AllowAllRule returns the paper's simplest "default allow all" rule.
func AllowAllRule() Rule {
	return Rule{Name: "allow-all", Action: Allow, Direction: Both}
}

// NonMatchingRule returns a rule that can never match live traffic on the
// simulated testbed: it is scoped to the TEST-NET-3 documentation prefix.
// The experiments use stacks of these as the padding above the action
// rule when sweeping rule-set depth.
func NonMatchingRule(i int) Rule {
	return Rule{
		Name:      "pad",
		Action:    Deny,
		Direction: Both,
		Proto:     packet.ProtoTCP,
		Src:       packet.Prefix{Addr: packet.IP{203, 0, 113, byte(i)}, Bits: 32},
		Dst:       packet.Prefix{Addr: packet.IP{203, 0, 113, 254}, Bits: 32},
		SrcPorts:  Port(1),
		DstPorts:  Port(1),
	}
}

// DepthRuleSet builds the paper's experimental rule-set shape with
// default def: depth-1 non-matching rules, then the action rules (the
// first at position depth), then trailing non-matching rules numbered
// from 100 so that they never repeat the padding above.
func DepthRuleSet(def Action, depth, trailing int, action ...Rule) (*RuleSet, error) {
	rules := make([]Rule, 0, max(depth-1, 0)+len(action)+trailing)
	for i := 1; i < depth; i++ {
		rules = append(rules, NonMatchingRule(i))
	}
	rules = append(rules, action...)
	for i := 0; i < trailing; i++ {
		rules = append(rules, NonMatchingRule(100+i))
	}
	return NewRuleSet(def, rules...)
}

// VPGRulePair returns the paper's "pair of rules that fully define one
// VPG": an inbound rule accepting sealed traffic from the group's address
// space and an outbound rule sealing cleartext traffic into the group.
func VPGRulePair(group string, local packet.IP, remote packet.Prefix) []Rule {
	return []Rule{
		{
			Name: group + "-in", Action: Allow, Direction: In, VPG: group,
			Src: remote, Dst: packet.Prefix{Addr: local, Bits: 32},
		},
		{
			Name: group + "-out", Action: Allow, Direction: Out, VPG: group,
			Src: packet.Prefix{Addr: local, Bits: 32}, Dst: remote,
		},
	}
}
