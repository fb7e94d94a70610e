package hostfw

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

func summary(dport uint16) packet.Summary {
	return packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.MustIP("10.0.0.1"), Dst: packet.MustIP("10.0.0.2"),
		SrcPort: 4242, DstPort: dport, HasPorts: true,
	}
}

func TestNilFirewallAllowsAll(t *testing.T) {
	var f *Firewall
	if f.Filter(summary(80), fw.In) != tracing.DropNone || f.Filter(summary(80), fw.Out) != tracing.DropNone {
		t.Error("nil firewall filtered traffic")
	}
	if f.RuleSet() != nil {
		t.Error("nil firewall has rules")
	}
}

func TestNoRulesAllowsAll(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	if f.Filter(summary(80), fw.In) != tracing.DropNone {
		t.Error("empty firewall denied traffic")
	}
}

func TestRulesEnforced(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	f.Install(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
	))
	if r := f.Filter(summary(80), fw.In); r != tracing.DropNone {
		t.Errorf("allowed traffic dropped: %v", r)
	}
	if r := f.Filter(summary(81), fw.In); r != tracing.DropRuleDeny {
		t.Errorf("denied traffic: reason %v, want rule-deny", r)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	f.Install(fw.MustRuleSet(fw.Allow,
		fw.Rule{Action: fw.Deny, Direction: fw.Out, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
	))
	if f.Filter(summary(80), fw.In) != tracing.DropNone {
		t.Error("inbound denied by out-rule")
	}
	if f.Filter(summary(80), fw.Out) != tracing.DropRuleDeny {
		t.Error("outbound allowed despite out-rule")
	}
}

func TestIPTablesSurvives100MbpsFloods(t *testing.T) {
	// The paper could not flood iptables into denial of service with a
	// 64-rule policy on a 100 Mbps network. 12,500 pps at 64 rules must
	// consume well under the host budget.
	k := sim.NewKernel()
	f := New(k, IPTables())
	rs, err := fw.DepthRuleSet(fw.Deny, 64, 0, fw.AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	f.Install(rs)
	denied := 0
	interval := time.Second / 12_500
	for i := 0; i < 12_500; i++ {
		k.At(time.Duration(i)*interval, func() {
			if f.Filter(summary(80), fw.In) != tracing.DropNone {
				denied++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if denied != 0 {
		t.Errorf("iptables dropped %d of 12500 packets at 64 rules", denied)
	}
}

// TestOverloadDropsWhenSaturated: a full host backlog drops packets
// with the card's overload reason, which the stack traces: with at
// least 1 ms of queued work the CPU is exhausted, below it the backlog
// overflowed in a burst. Neither is a rule denial.
func TestOverloadDropsWhenSaturated(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity float64
		want     tracing.DropReason
	}{
		{"tiny budget", 1000, tracing.DropCPUExhausted},                // 60 ms per packet
		{"burst", IPTables().CapacityUnits, tracing.DropQueueOverflow}, // 10 µs per packet
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := IPTables()
			p.CapacityUnits = tc.capacity
			p.MaxQueue = 4
			f := New(sim.NewKernel(), p)
			f.Install(fw.MustRuleSet(fw.Allow))
			reasons := map[tracing.DropReason]int{}
			for i := 0; i < 1000; i++ {
				reasons[f.Filter(summary(80), fw.In)]++
			}
			if reasons[tc.want] != 1000-p.MaxQueue || reasons[tracing.DropNone] != p.MaxQueue {
				t.Errorf("reasons = %v, want %d %v and %d admitted", reasons, 1000-p.MaxQueue, tc.want, p.MaxQueue)
			}
		})
	}
}
