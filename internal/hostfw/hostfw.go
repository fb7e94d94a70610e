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
	"barbican/internal/nic/conntrack"
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

	// Connection tracking (the ip_conntrack module). Zero entries =
	// stateless host filter; state matchers in the policy then never
	// see a classification other than StateNone and stateful rules
	// simply cannot fire.
	ConntrackEntries    int
	ConntrackLookupCost float64
	ConntrackInsertCost float64
	ConntrackEvict      conntrack.EvictPolicy
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
	// StateFullDrops counts allowed-by-policy packets dropped because
	// the conntrack table was full ("nf_conntrack: table full, dropping
	// packet"). The host has no fail-open posture for this.
	StateFullDrops uint64
}

// Firewall is a host software firewall. A nil *Firewall admits all
// traffic, so hosts can hold one unconditionally.
type Firewall struct {
	kernel  *sim.Kernel
	profile Profile
	proc    *nic.Processor
	rules   *fw.RuleSet
	ct      *conntrack.Table // nil without the conntrack module
	stats   Stats
}

// New creates a host firewall with no rules installed (allow all).
func New(k *sim.Kernel, profile Profile) *Firewall {
	f := &Firewall{
		kernel:  k,
		profile: profile,
		proc:    nic.NewProcessor(k, profile.CapacityUnits, profile.MaxQueue),
	}
	if profile.ConntrackEntries > 0 {
		f.ct = conntrack.New(conntrack.Config{
			Cap:    profile.ConntrackEntries,
			Policy: profile.ConntrackEvict,
			Seed:   k.Rand().Int63(),
		})
	}
	return f
}

// Conntrack returns the host's connection-tracking table (nil without
// the module).
func (f *Firewall) Conntrack() *conntrack.Table {
	if f == nil {
		return nil
	}
	return f.ct
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
	// Classify before rule evaluation when both the module and a
	// stateful policy are present. Unlike the NIC fast path, the host
	// filter does NOT auto-drop ctstate INVALID: iptables hands every
	// classification to the rules, and only an explicit match (or the
	// default action) decides. A stateful policy without a `state
	// invalid` rule falls through to its default.
	cs := fw.StateNone
	ctCost := 0.0
	if f.ct != nil && !s.Sealed && f.rules.Stateful() {
		cs = f.ct.Classify(s, f.kernel.Now())
		ctCost = f.profile.ConntrackLookupCost
	}
	v := f.rules.Match(s, dir, cs)
	stateFull := false
	if v.Action == fw.Allow && cs != fw.StateNone && cs != fw.StateInvalid {
		switch f.ct.Commit(s, f.kernel.Now()) {
		case conntrack.CommitCreated, conntrack.CommitEvicted:
			ctCost += f.profile.ConntrackInsertCost
		case conntrack.CommitFull:
			ctCost += f.profile.ConntrackInsertCost
			stateFull = true
		case conntrack.CommitExisting, conntrack.NumCommitStatuses:
		}
	}
	cost := f.profile.BaseCost + f.profile.PerRuleCost*float64(v.Traversed) + ctCost
	if _, ok := f.proc.Admit(cost); !ok {
		return false, false
	}
	if stateFull {
		f.stats.StateFullDrops++
		return true, false
	}
	return true, v.Action == fw.Allow
}
