// Package hostfw models a host-resident software firewall (the paper's
// iptables baseline): the same first-match rule semantics as the embedded
// cards, but executed on the host CPU, whose budget dwarfs the NIC's
// embedded processor. That ratio is why the paper found iptables lost no
// bandwidth at 64 rules on a 100 Mbps network and shrugged off every
// flood their generator could produce.
package hostfw

import (
	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// Profile parameterizes the host CPU cost of filtering.
type Profile struct {
	Name          string
	CapacityUnits float64
	BaseCost      float64
	PerRuleCost   float64
	MaxQueue      int // kernel backlog, in packets
}

// IPTables returns the calibrated Linux 2.4 iptables profile on the
// paper's 1 GHz Pentium III hosts: roughly 17× the embedded card's
// packet budget, so a 100 Mbps network cannot saturate it at any rule
// depth the paper tested.
func IPTables() Profile {
	return Profile{
		Name:          "iptables",
		CapacityUnits: 6_000_000,
		BaseCost:      60,
		PerRuleCost:   2.2,
		MaxQueue:      1024,
	}
}

// Stats counts filter activity.
type Stats struct {
	InAllowed, InDenied, InOverloadDrops    uint64
	OutAllowed, OutDenied, OutOverloadDrops uint64
}

// Firewall is a host software firewall. A nil *Firewall admits all
// traffic, so hosts can hold one unconditionally.
type Firewall struct {
	profile Profile
	proc    *nic.Processor
	rules   *fw.RuleSet
	stats   Stats
}

// New creates a host firewall with no rules installed (allow all).
func New(k *sim.Kernel, profile Profile) *Firewall {
	return &Firewall{
		profile: profile,
		proc:    nic.NewProcessor(k, profile.CapacityUnits, profile.MaxQueue),
	}
}

// Install sets (or with nil clears) the rule set.
func (f *Firewall) Install(rs *fw.RuleSet) { f.rules = rs }

// RuleSet returns the installed policy (nil when unfiltered).
func (f *Firewall) RuleSet() *fw.RuleSet {
	if f == nil {
		return nil
	}
	return f.rules
}

// Stats returns a snapshot of the counters.
func (f *Firewall) Stats() Stats { return f.stats }

// FilterIn reports whether an inbound packet is admitted.
func (f *Firewall) FilterIn(s packet.Summary) bool {
	if f == nil {
		return true
	}
	ok, allowed := f.filter(s, fw.In)
	switch {
	case !ok:
		f.stats.InOverloadDrops++
	case allowed:
		f.stats.InAllowed++
	default:
		f.stats.InDenied++
	}
	return ok && allowed
}

// FilterOut reports whether an outbound packet is admitted.
func (f *Firewall) FilterOut(s packet.Summary) bool {
	if f == nil {
		return true
	}
	ok, allowed := f.filter(s, fw.Out)
	switch {
	case !ok:
		f.stats.OutOverloadDrops++
	case allowed:
		f.stats.OutAllowed++
	default:
		f.stats.OutDenied++
	}
	return ok && allowed
}

func (f *Firewall) filter(s packet.Summary, dir fw.Direction) (processed, allowed bool) {
	if f.rules == nil {
		return true, true
	}
	// The host filter has no connection tracking: every packet reaches
	// the rules classified StateNone, so a stateful rule never fires.
	v := f.rules.Match(s, dir, fw.StateNone)
	cost := f.profile.BaseCost + f.profile.PerRuleCost*float64(v.Traversed)
	if _, ok := f.proc.Admit(cost); !ok {
		return false, false
	}
	return true, v.Action == fw.Allow
}
