package core

import (
	"testing"

	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/tracing"
)

func TestStatefulRuleSetShape(t *testing.T) {
	rs, err := StatefulRuleSet(64)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Stateful() {
		t.Fatal("StatefulRuleSet is not stateful")
	}
	if got := len(rs.Rules()); got != 65 {
		t.Fatalf("depth-64 set has %d rules, want 65 (63 pads + new + established)", got)
	}
}

func mustStateflood(t *testing.T, s StatefloodScenario) StatefloodPoint {
	t.Helper()
	p, err := RunStateflood(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStatefloodBaseline: with no flood, the echo session survives
// untouched — the stateful policy itself costs the session nothing.
func TestStatefloodBaseline(t *testing.T) {
	p := mustStateflood(t, StatefloodScenario{Seed: 3})
	if r := p.SessionRatio(); r != 1 {
		t.Fatalf("baseline session ratio = %.2f, want 1.00 (%d/%d)",
			r, p.SessionEchoed, p.SessionSent)
	}
	if p.Conntrack.Created == 0 {
		t.Error("session created no conntrack state")
	}
}

// TestStatefloodStateVsPacketRate is the acceptance demonstration at
// fixed rates: 6000 pps of SYN flood exhausts the LRU state table and
// severs the established session, while the same 6000 pps as a plain
// UDP packet flood does not — state exhaustion is a strictly cheaper
// DoS than packet-rate exhaustion on the same card.
func TestStatefloodStateVsPacketRate(t *testing.T) {
	syn := mustStateflood(t, StatefloodScenario{
		FloodRatePPS: 6000, FloodKind: measure.FloodTCPSYN,
		EvictPolicy: conntrack.EvictLRU, Seed: 3,
	})
	if !syn.DoSed() {
		t.Errorf("SYN flood @6000pps did not DoS the session (ratio %.2f)", syn.SessionRatio())
	}
	if syn.Conntrack.Evicted == 0 {
		t.Error("SYN flood evicted nothing — table never churned")
	}

	udp := mustStateflood(t, StatefloodScenario{
		FloodRatePPS: 6000, FloodKind: measure.FloodUDP, Seed: 3,
	})
	if udp.DoSed() {
		t.Errorf("UDP flood @6000pps DoSed the session (ratio %.2f); state exhaustion should be strictly cheaper", udp.SessionRatio())
	}
}

// TestStatefloodSYNDropRestoresTolerance: the syn-early-drop eviction
// policy refuses to evict assured entries, so the established session
// survives a SYN rate that collapses LRU by several multiples.
func TestStatefloodSYNDropRestoresTolerance(t *testing.T) {
	p := mustStateflood(t, StatefloodScenario{
		FloodRatePPS: 20000, FloodKind: measure.FloodTCPSYN,
		EvictPolicy: conntrack.EvictSYNDrop, Seed: 3,
	})
	if p.DoSed() {
		t.Errorf("syn-drop @20000pps: session DoSed (ratio %.2f)", p.SessionRatio())
	}
}

// TestStatefloodACKProfile: an ACK flood against an established-only
// policy creates no state at all — every flood packet is an INVALID
// hard drop and the table holds just the session.
func TestStatefloodACKProfile(t *testing.T) {
	p := mustStateflood(t, StatefloodScenario{
		FloodRatePPS: 8000, FloodKind: measure.FloodTCPACK, Seed: 3,
	})
	if p.DoSed() {
		t.Errorf("ACK flood @8000pps DoSed the session (ratio %.2f)", p.SessionRatio())
	}
	if p.TargetNIC.RxDrops[tracing.DropNoState] == 0 {
		t.Error("ACK flood produced no no-state drops")
	}
	if p.CTEntries > 2 {
		t.Errorf("ACK flood grew the table to %d entries", p.CTEntries)
	}
}

// TestStateRecoveryDesync reproduces the state-desync hazard and shows
// the fix: RecoveryKeep leaves the outage-born flow's absence baked in
// (its packets are INVALID to the restored stateful policy — severed),
// RecoveryFlush severs everything, and RecoveryResync's loose pickup
// window re-adopts both flows mid-stream.
func TestStateRecoveryDesync(t *testing.T) {
	cases := []struct {
		policy          nic.StateRecovery
		pre, mid, fresh bool
		note            string
	}{
		{nic.RecoveryKeep, true, false, true, "keep: the outage-born flow must be severed (the desync hazard)"},
		{nic.RecoveryFlush, false, false, true, "flush: every pre-existing flow must be severed"},
		{nic.RecoveryResync, true, true, true, "resync: every flow must survive"},
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			res, err := RunStateRecovery(StateRecoveryScenario{Recovery: c.policy, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if res.PreOutageOK != c.pre || res.MidOutageOK != c.mid || res.NewFlowOK != c.fresh {
				t.Errorf("%s: pre=%v mid=%v new=%v, want pre=%v mid=%v new=%v",
					c.note, res.PreOutageOK, res.MidOutageOK, res.NewFlowOK,
					c.pre, c.mid, c.fresh)
			}
			if res.WatchdogResets == 0 {
				t.Error("outage never triggered the watchdog")
			}
		})
	}
}
