// Package hostfw models a host-resident software firewall (the paper's
// iptables baseline): the same first-match rule semantics as the embedded
// cards, priced by the same nic.Profile cost model on a nic.Processor,
// but with the host CPU's budget, which dwarfs the NIC's embedded
// processor. That ratio is why the paper found iptables lost no
// bandwidth at 64 rules on a 100 Mbps network and shrugged off every
// flood their generator could produce.
package hostfw

import (
	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// IPTables returns the calibrated Linux 2.4 iptables profile on the
// paper's 1 GHz Pentium III hosts: roughly 17× the embedded card's
// packet budget, so a 100 Mbps network cannot saturate it at any rule
// depth the paper tested. MaxQueue is the kernel backlog, in packets.
func IPTables() nic.Profile {
	return nic.Profile{
		Name:          "iptables",
		CapacityUnits: 6_000_000,
		BaseCost:      60,
		PerRuleCost:   2.2,
		MaxQueue:      1024,
	}
}

// Firewall is a host software firewall. A nil *Firewall admits all
// traffic, so hosts can hold one unconditionally.
type Firewall struct {
	profile nic.Profile
	proc    *nic.Processor
	rules   *fw.RuleSet
}

// New creates a host firewall with no rules installed (allow all).
func New(k *sim.Kernel, profile nic.Profile) *Firewall {
	return &Firewall{
		profile: profile,
		proc:    nic.NewProcessor(k, profile),
	}
}

// Install sets (or with nil clears) the rule set.
func (f *Firewall) Install(rs *fw.RuleSet) {
	f.proc.Reserve(rs)
	f.rules = rs
}

// RuleSet returns the installed policy (nil when unfiltered).
func (f *Firewall) RuleSet() *fw.RuleSet {
	if f == nil {
		return nil
	}
	return f.rules
}

// Profile returns the cost model the filter is priced by.
func (f *Firewall) Profile() nic.Profile { return f.profile }

// Processor returns the host CPU's share that runs the filter, which
// holds its cost account.
func (f *Firewall) Processor() *nic.Processor { return f.proc }

// Filter decides one packet in direction dir and returns why it was
// dropped: tracing.DropNone when admitted, DropRuleDeny when the rules
// deny it, or the processor's overload reason when the host CPU's
// backlog is full.
func (f *Firewall) Filter(s packet.Summary, dir fw.Direction) tracing.DropReason {
	if f == nil || f.rules == nil {
		return tracing.DropNone
	}
	// The host filter has no connection tracking: every packet reaches
	// the rules classified StateNone, so a stateful rule never fires.
	v := f.rules.Match(s, dir, fw.StateNone)
	if _, ok := f.proc.Charge(dir, nic.MatchWalk, v.Traversed, v.Index, 0, 0); !ok {
		return f.proc.OverloadReason()
	}
	if v.Action != fw.Allow {
		return tracing.DropRuleDeny
	}
	return tracing.DropNone
}
