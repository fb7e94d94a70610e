package hostfw

import (
	"testing"
	"time"

	"barbican/internal/fw"
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
	if !f.FilterIn(summary(80)) || !f.FilterOut(summary(80)) {
		t.Error("nil firewall filtered traffic")
	}
	if f.RuleSet() != nil {
		t.Error("nil firewall has rules")
	}
}

func TestNoRulesAllowsAll(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	if !f.FilterIn(summary(80)) {
		t.Error("empty firewall denied traffic")
	}
}

func TestRulesEnforced(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	f.Install(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
	))
	if !f.FilterIn(summary(80)) {
		t.Error("allowed traffic denied")
	}
	if f.FilterIn(summary(81)) {
		t.Error("denied traffic allowed")
	}
	st := f.Stats()
	if st.InAllowed != 1 || st.InDenied != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	f := New(sim.NewKernel(), IPTables())
	f.Install(fw.MustRuleSet(fw.Allow,
		fw.Rule{Action: fw.Deny, Direction: fw.Out, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
	))
	if !f.FilterIn(summary(80)) {
		t.Error("inbound denied by out-rule")
	}
	if f.FilterOut(summary(80)) {
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
			if !f.FilterIn(summary(80)) {
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

func TestOverloadDropsWhenSaturated(t *testing.T) {
	k := sim.NewKernel()
	p := IPTables()
	p.CapacityUnits = 1000 // tiny budget
	p.MaxQueue = 4
	f := New(k, p)
	f.Install(fw.MustRuleSet(fw.Allow))
	drops := 0
	for i := 0; i < 1000; i++ {
		if !f.FilterIn(summary(80)) {
			drops++
		}
	}
	if drops == 0 {
		t.Error("saturated host firewall dropped nothing")
	}
	if f.Stats().InOverloadDrops == 0 {
		t.Error("overload drops not counted")
	}
}
