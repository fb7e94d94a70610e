package nic

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

func tcpDgram(src, dst packet.IP, sport, dport uint16, flags packet.TCPFlags) *packet.Datagram {
	s := &packet.TCPSegment{SrcPort: sport, DstPort: dport, Flags: flags, Window: 65535}
	return packet.NewDatagram(src, dst, packet.ProtoTCP, 1, s.MarshalTo(src, dst, nil))
}

// statefulRules is the canonical stateful policy: new connections only
// to port 2000, everything else rides on established/related state.
func statefulRules() *fw.RuleSet {
	return fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP,
			DstPorts: fw.Port(2000), States: fw.MaskOf(fw.StateNew)},
		fw.Rule{Action: fw.Allow, Direction: fw.Both,
			States: fw.MaskOf(fw.StateEstablished, fw.StateRelated)},
	)
}

// establish runs the three-way handshake for (sport -> 2000) through
// the a->b pair so b's state table holds an assured established entry.
func establish(t *testing.T, k *sim.Kernel, a, b *NIC, sport uint16) {
	t.Helper()
	if !a.Send(tcpDgram(ipA, ipB, sport, 2000, packet.FlagSYN), macB) {
		t.Fatal("SYN refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !b.Send(tcpDgram(ipB, ipA, 2000, sport, packet.FlagSYN|packet.FlagACK), macA) {
		t.Fatal("SYN/ACK refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Send(tcpDgram(ipA, ipB, sport, 2000, packet.FlagACK), macB) {
		t.Fatal("ACK refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStatefulInvalidHardDrop: an untracked mid-stream ACK classifies
// INVALID and is dropped before the rule walk — the counter is the
// dedicated no-state reason, not a rule deny.
func TestStatefulInvalidHardDrop(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), Stateful())
	b.InstallRuleSet(statefulRules())
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagACK), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("untracked ACK was delivered")
	}
	st := b.Stats()
	if st.RxDrops[tracing.DropNoState] != 1 || st.RxDrops[tracing.DropRuleDeny] != 0 {
		t.Errorf("stats = %+v, want one no-state drop and zero rule denies", st)
	}
	rx, _ := b.DropCounts()
	if rx[tracing.DropNoState] != 1 {
		t.Errorf("rxDrops[DropNoState] = %d, want 1", rx[tracing.DropNoState])
	}
	cts := b.ConntrackStats()
	if cts.Lookups != 1 || cts.Created != 0 {
		t.Errorf("conntrack stats = %+v, want 1 lookup, 0 created", cts)
	}
	if b.Conntrack().Len() != 0 {
		t.Error("invalid packet grew the state table")
	}
}

// TestStatefulHandshakeAndStateKeyedCache: the handshake establishes
// state, data rides the established rule, and — the flow-cache keying
// contract — when the same 5-tuple's classification changes (RST moves
// the entry to closed), the cached Allow verdict must not replay.
func TestStatefulHandshakeAndStateKeyedCache(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), Stateful())
	b.InstallRuleSet(statefulRules())
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	establish(t, k, a, b, 41000)
	if b.Conntrack().Len() != 1 {
		t.Fatalf("conntrack entries = %d, want 1", b.Conntrack().Len())
	}
	sum := packet.Summary{Proto: packet.ProtoTCP, Src: ipA, Dst: ipB,
		SrcPort: 41000, DstPort: 2000, HasPorts: true}
	info, ok := b.Conntrack().Peek(sum, k.Now())
	if !ok || info.TCP != conntrack.TCPEstablished || !info.Assured {
		t.Fatalf("peek = %+v, %v; want assured established", info, ok)
	}

	// Data segments on the established flow pass in both directions
	// (the second ingress segment exercises the flow-cache hit path).
	for i := 0; i < 2; i++ {
		a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagACK|packet.FlagPSH), macB)
	}
	if !b.Send(tcpDgram(ipB, ipA, 2000, 41000, packet.FlagACK|packet.FlagPSH), macA) {
		t.Fatal("egress data refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	base := delivered
	if base < 3 {
		t.Fatalf("delivered %d established-flow frames, want >= 3", base)
	}

	// RST tears the connection down; the same data packet that was
	// just allowed (and cached) must now classify INVALID and drop.
	a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagRST), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	pre := b.Stats().RxDrops[tracing.DropNoState]
	a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagACK|packet.FlagPSH), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().RxDrops[tracing.DropNoState] - pre; got != 1 {
		t.Errorf("post-RST data: no-state drops = %d, want 1 (stale cached verdict replayed?)", got)
	}
	if delivered != base+1 { // the RST itself was delivered; the data was not
		t.Errorf("delivered = %d, want %d", delivered, base+1)
	}
}

// TestStateTableFullPosture: with every entry assured and a policy
// (syn-drop) that refuses to evict assured state, a new connection hits
// CommitFull. The card's posture is closed: it admits no connection it
// cannot track (drop, DropStateTableFull), and the table stays at cap.
func TestStateTableFullPosture(t *testing.T) {
	k := sim.NewKernel()
	prof := Stateful()
	prof.ConntrackEntries = 2
	prof.ConntrackEvict = conntrack.EvictSYNDrop
	a, b := pair(t, k, Standard(), prof)
	b.InstallRuleSet(statefulRules())
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	establish(t, k, a, b, 41000)
	establish(t, k, a, b, 41001)
	if b.Conntrack().Len() != 2 {
		t.Fatalf("conntrack entries = %d, want 2 (table full)", b.Conntrack().Len())
	}

	// The third connection's SYN is dropped.
	preDeliver := delivered
	a.Send(tcpDgram(ipA, ipB, 41002, 2000, packet.FlagSYN), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.RxDrops[tracing.DropStateTableFull] != 1 {
		t.Errorf("stats = %+v, want 1 state-full drop", st)
	}
	rx, _ := b.DropCounts()
	if rx[tracing.DropStateTableFull] != 1 {
		t.Errorf("rxDrops[DropStateTableFull] = %d, want 1", rx[tracing.DropStateTableFull])
	}
	if delivered != preDeliver {
		t.Error("the card delivered the overflow SYN")
	}
	if b.Conntrack().Len() != 2 {
		t.Error("the overflow SYN grew the table past its cap")
	}
}

// TestStatelessPolicyBypassesConntrack: a stateless rule set on a
// conntrack-equipped card never consults the table — byte-identical to
// the pre-conntrack fast path.
func TestStatelessPolicyBypassesConntrack(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), Stateful())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.AllowAllRule()))
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagSYN), macB)
	a.Send(udpDatagram(ipA, ipB, 1000, 2000, 64), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if cts := b.ConntrackStats(); cts.Lookups != 0 || cts.Created != 0 {
		t.Errorf("stateless policy touched conntrack: %+v", cts)
	}
	if b.Conntrack().Len() != 0 {
		t.Error("stateless policy grew the state table")
	}
}

// TestStatelessProfileWithStatefulPolicy: a card without a state table
// evaluates a stateful policy under StateNone — stateful rules cannot
// fire, so the default verdict applies. No crash, no tracking.
func TestStatelessProfileWithStatefulPolicy(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(statefulRules())
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagSYN), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("stateless card matched a stateful rule")
	}
	if st := b.Stats(); st.RxDrops[tracing.DropRuleDeny] != 1 || st.RxDrops[tracing.DropNoState] != 0 {
		t.Errorf("stats = %+v, want a plain rule deny", st)
	}
	if b.Conntrack() != nil {
		t.Fatal("EFW profile has a conntrack table")
	}
}
