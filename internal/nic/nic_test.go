package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	ipA  = packet.MustIP("10.0.0.1")
	ipB  = packet.MustIP("10.0.0.2")
)

// pair builds two NICs joined by a 100 Mbps link.
func pair(t *testing.T, k *sim.Kernel, profA, profB Profile) (*NIC, *NIC) {
	t.Helper()
	ea, eb := link.New(k, link.Config{QueueFrames: 1 << 16})
	return New(k, macA, profA, ea), New(k, macB, profB, eb)
}

func udpDatagram(src, dst packet.IP, sport, dport uint16, payload int) *packet.Datagram {
	u := &packet.UDPDatagram{SrcPort: sport, DstPort: dport, Payload: make([]byte, payload)}
	return packet.NewDatagram(src, dst, packet.ProtoUDP, 1, u.MarshalTo(src, dst, nil))
}

func tcpSyn(src, dst packet.IP, sport, dport uint16) *packet.Datagram {
	s := &packet.TCPSegment{SrcPort: sport, DstPort: dport, Flags: packet.FlagSYN}
	return packet.NewDatagram(src, dst, packet.ProtoTCP, 1, s.MarshalTo(src, dst, nil))
}

func TestStandardNICPassesTraffic(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), Standard())
	var got []*packet.Frame
	b.SetDeliver(func(f *packet.Frame) { got = append(got, f) })
	if !a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB) {
		t.Fatal("Send refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	if st := b.Stats(); st.RxAllowed != 1 || st.RxDrops[tracing.DropRuleDeny] != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNICIgnoresFramesForOtherMACs(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), Standard())
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })
	other := packet.MAC{2, 0, 0, 0, 0, 99}
	a.Send(udpDatagram(ipA, ipB, 1, 2, 10), other)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("frame for another MAC was delivered")
	}
	if b.Stats().RxFrames != 0 {
		t.Error("frame for another MAC was counted")
	}
}

func TestIngressPolicyEnforced(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, DstPorts: fw.Port(2000)},
	))
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB) // allowed
	a.Send(udpDatagram(ipA, ipB, 1000, 2001, 100), macB) // denied by default
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	st := b.Stats()
	if st.RxAllowed != 1 || st.RxDrops[tracing.DropRuleDeny] != 1 {
		t.Errorf("stats = %+v, want 1 allowed / 1 denied", st)
	}
}

func TestEgressPolicyEnforced(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, EFW(), Standard())
	a.InstallRuleSet(fw.MustRuleSet(fw.Allow,
		fw.Rule{Action: fw.Deny, Direction: fw.Out, Proto: packet.ProtoUDP, DstPorts: fw.Port(9)},
	))
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	if a.Send(udpDatagram(ipA, ipB, 1, 9, 10), macB) {
		t.Error("denied egress datagram accepted")
	}
	if !a.Send(udpDatagram(ipA, ipB, 1, 10, 10), macB) {
		t.Error("allowed egress datagram refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d, want 1", delivered)
	}
	if st := a.Stats(); st.TxDrops[tracing.DropRuleDeny] != 1 || st.TxAllowed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnfilteredNICAllowsWithoutRuleCost(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	if b.RuleSet() != nil {
		t.Fatal("fresh NIC has rules")
	}
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })
	a.Send(udpDatagram(ipA, ipB, 1, 2, 64), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("unfiltered EFW dropped traffic")
	}
	// Only the base cost was paid: no rules were traversed.
	if got := b.proc.UnitsDone(); got != EFW().BaseCost {
		t.Errorf("units done = %v, want base cost %v", got, EFW().BaseCost)
	}
}

func TestSaturationDropsFloodTraffic(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	rs, err := fw.DepthRuleSet(fw.Deny, 64, 0, fw.AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	b.InstallRuleSet(rs)
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	// Offer twice the card's 64-rule one-way capacity for one second;
	// roughly half must be dropped by overload.
	cap64 := EFW().CapacityUnits / (EFW().BaseCost + 64*EFW().PerRuleCost)
	offered := int(2 * cap64)
	interval := time.Second / time.Duration(offered)
	for i := 0; i < offered; i++ {
		d := udpDatagram(ipA, ipB, 1000, 2000, 64)
		k.At(time.Duration(i)*interval, func() { a.Send(d, macB) })
	}
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.RxDrops[tracing.DropCPUExhausted]+st.RxDrops[tracing.DropQueueOverflow] == 0 {
		t.Fatal("no overload drops under 2x flood")
	}
	if float64(delivered) < cap64*0.8 || float64(delivered) > cap64*1.3 {
		t.Errorf("delivered %d packets, want ≈%0.f (card capacity at 64 rules)", delivered, cap64)
	}
}

// TestEFWLockup: a denied flood above the paper's 1,000 pkt/s
// threshold wedges the EFW, and the card stays wedged: it passes
// nothing, not even traffic a newly installed policy allows, long
// after the flood has ended.
func TestEFWLockup(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny)) // deny-all
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	// Flood with 1,500 denied packets/s: above the 1,000/s lockup
	// threshold the paper observed.
	interval := time.Second / 1500
	for i := 0; i < 1500; i++ {
		d := udpDatagram(ipA, ipB, 1, 2, 64)
		k.At(time.Duration(i)*interval, func() { a.Send(d, macB) })
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !b.Locked() {
		t.Fatal("EFW did not lock up under a >1000 pps denied flood")
	}
	if b.Stats().Lockups != 1 {
		t.Errorf("Lockups = %d, want 1", b.Stats().Lockups)
	}

	// While locked, even traffic that would be allowed is dropped.
	b.InstallRuleSet(fw.MustRuleSet(fw.Allow))
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	a.Send(udpDatagram(ipA, ipB, 1, 2, 64), macB)
	if err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("locked card delivered traffic")
	}
	lockedDrops := b.Stats().RxDrops[tracing.DropAgentNotReady]
	if lockedDrops == 0 {
		t.Error("locked card recorded no locked drops")
	}
	if got := b.DegradedState(); got != StateWedged {
		t.Errorf("state = %v, want wedged", got)
	}
}

func TestADFDoesNotLockUp(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), ADF())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny))
	interval := time.Second / 5000
	for i := 0; i < 5000; i++ {
		d := udpDatagram(ipA, ipB, 1, 2, 64)
		k.At(time.Duration(i)*interval, func() { a.Send(d, macB) })
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if b.Locked() {
		t.Error("ADF locked up; only the EFW exhibits the Deny-All failure")
	}
}

func vpgPair(t *testing.T, k *sim.Kernel) (*NIC, *NIC, *vpg.Group) {
	t.Helper()
	a, b := pair(t, k, ADF(), ADF())
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InstallGroup(g, ipA); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallGroup(g, ipB); err != nil {
		t.Fatal(err)
	}
	prefix := packet.MustPrefix("10.0.0.0/24")
	a.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", ipA, prefix)...))
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", ipB, prefix)...))
	return a, b, g
}

func TestVPGSealsAndOpensEndToEnd(t *testing.T) {
	k := sim.NewKernel()
	a, b, _ := vpgPair(t, k)
	var got *packet.Frame
	b.SetDeliver(func(f *packet.Frame) {
		// The opened frame is lent until deliver returns: keep a copy.
		c := *f
		c.Payload = append([]byte(nil), f.Payload...)
		got = &c
	})

	if !a.Send(udpDatagram(ipA, ipB, 1000, 2000, 256), macB) {
		t.Fatal("Send refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("nothing delivered")
	}
	if got.Type != packet.EtherTypeIPv4 {
		t.Fatalf("delivered frame type %#x, want cleartext IPv4", uint16(got.Type))
	}
	d, err := packet.UnmarshalDatagram(got.Payload)
	if err != nil {
		t.Fatalf("inner datagram: %v", err)
	}
	u, err := packet.UnmarshalUDPDatagram(d.Header.Src, d.Header.Dst, d.Payload)
	if err != nil {
		t.Fatalf("inner UDP: %v", err)
	}
	if u.DstPort != 2000 || len(u.Payload) != 256 {
		t.Errorf("inner UDP = port %d len %d", u.DstPort, len(u.Payload))
	}
	if a.Stats().Sealed != 1 || b.Stats().Opened != 1 {
		t.Errorf("sealed=%d opened=%d", a.Stats().Sealed, b.Stats().Opened)
	}
}

func TestVPGWireTrafficIsSealed(t *testing.T) {
	k := sim.NewKernel()
	ea, eb := link.New(k, link.Config{})
	a := New(k, macA, ADF(), ea)
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InstallGroup(g, ipA); err != nil {
		t.Fatal(err)
	}
	a.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", ipA, packet.MustPrefix("10.0.0.0/24"))...))

	var wire *packet.Frame
	eb.Attach(func(f *packet.Frame) { wire = f })
	a.Send(udpDatagram(ipA, ipB, 1000, 2000, 64), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wire == nil {
		t.Fatal("nothing on the wire")
	}
	if wire.Type != packet.EtherTypeVPG {
		t.Fatalf("wire frame type %#x, want sealed VPG", uint16(wire.Type))
	}
	d, err := packet.UnmarshalDatagram(wire.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.Protocol != packet.ProtoVPGEncap {
		t.Errorf("outer protocol %v, want VPG encap", d.Header.Protocol)
	}
}

func TestVPGRejectsCleartextFromNonMember(t *testing.T) {
	k := sim.NewKernel()
	_, b, _ := vpgPair(t, k)

	// An attacker injects a cleartext datagram at b's ingress; the
	// VPG-only policy must deny it.
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })
	evil := packet.MustIP("10.0.0.66")
	d := udpDatagram(evil, ipB, 1, 2000, 64)
	f := &packet.Frame{Dst: macB, Src: packet.MAC{2, 0, 0, 0, 0, 66}, Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}
	b.handleFrame(f)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("cleartext from non-member delivered through VPG-only policy")
	}
	if b.Stats().RxDrops[tracing.DropRuleDeny] != 1 {
		t.Errorf("rx rule-deny drops = %d, want 1", b.Stats().RxDrops[tracing.DropRuleDeny])
	}
}

func TestVPGForgedFrameDropped(t *testing.T) {
	k := sim.NewKernel()
	a, b, _ := vpgPair(t, k)
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	// Two legitimate sealed sends pass.
	a.Send(udpDatagram(ipA, ipB, 1, 2000, 64), macB)
	a.Send(udpDatagram(ipA, ipB, 1, 2000, 64), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("clean frames delivered = %d, want 2", delivered)
	}

	// Craft a forged envelope with the wrong key.
	forgedGroup, err := vpg.NewGroup("psq", vpg.DeriveKey("WRONG"), ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	env, err := forgedGroup.Seal(nil, ipA, ipB, packet.ProtoUDP, make([]byte, 64), 99)
	if err != nil {
		t.Fatal(err)
	}
	outer := packet.NewDatagram(ipA, ipB, packet.ProtoVPGEncap, 9, env)
	forged := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeVPG, Payload: outer.MarshalTo(nil)}
	b.handleFrame(forged)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Error("forged frame was delivered")
	}
	if b.Stats().RxDrops[tracing.DropAuthFail] != 1 {
		t.Errorf("rx auth-fail drops = %d, want 1", b.Stats().RxDrops[tracing.DropAuthFail])
	}
}

func TestVPGReplayDropped(t *testing.T) {
	k := sim.NewKernel()
	a, b, _ := vpgPair(t, k)
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	a.Send(udpDatagram(ipA, ipB, 1, 2000, 64), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("original frame not delivered")
	}

	// An attacker who captured a sealed frame replays it verbatim: the
	// first injected copy is fresh (new seq), its replay is dropped.
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	env, err := g.Seal(nil, ipA, ipB, packet.ProtoUDP, make([]byte, 64), 7)
	if err != nil {
		t.Fatal(err)
	}
	outer := packet.NewDatagram(ipA, ipB, packet.ProtoVPGEncap, 9, env)
	f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeVPG, Payload: outer.MarshalTo(nil)}
	b.handleFrame(f)
	b.handleFrame(f.Clone())
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (original + first injected)", delivered)
	}
	if b.Stats().RxDrops[tracing.DropReplay] != 1 {
		t.Errorf("rx replay drops = %d, want 1", b.Stats().RxDrops[tracing.DropReplay])
	}
}

func TestSealOverheadAndOversize(t *testing.T) {
	k := sim.NewKernel()
	a, _, _ := vpgPair(t, k)
	if a.SealOverhead() != vpg.Overhead(3) {
		t.Errorf("SealOverhead = %d, want %d", a.SealOverhead(), vpg.Overhead(3))
	}
	// A full-MTU datagram cannot be sealed without exceeding the MTU.
	big := udpDatagram(ipA, ipB, 1, 2000, packet.MaxPayload-packet.IPv4HeaderLen-packet.UDPHeaderLen)
	if a.Send(big, macB) {
		t.Error("oversized sealed frame accepted")
	}
	if a.Stats().TxDrops[tracing.DropOversize] != 1 {
		t.Errorf("tx oversize drops = %d, want 1", a.Stats().TxDrops[tracing.DropOversize])
	}
}

func TestEagerVPGDecryptCostsMore(t *testing.T) {
	// Ablation support: with eager decryption the card pays crypto for
	// sealed packets even when they are denied before the VPG rule.
	run := func(eager bool) float64 {
		k := sim.NewKernel()
		prof := ADF()
		prof.EagerVPGDecrypt = eager
		ea, eb := link.New(k, link.Config{})
		_ = ea
		b := New(k, macB, prof, eb)
		g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.InstallGroup(g, ipB); err != nil {
			t.Fatal(err)
		}
		// Sealed traffic denied by rule 1 (before any VPG rule).
		b.InstallRuleSet(fw.MustRuleSet(fw.Deny))
		env, err := g.Seal(nil, ipA, ipB, packet.ProtoUDP, make([]byte, 512), 1)
		if err != nil {
			t.Fatal(err)
		}
		outer := packet.NewDatagram(ipA, ipB, packet.ProtoVPGEncap, 1, env)
		f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeVPG, Payload: outer.MarshalTo(nil)}
		b.handleFrame(f)
		return b.proc.UnitsDone()
	}
	lazy, eager := run(false), run(true)
	if eager <= lazy {
		t.Errorf("eager units %0.f <= lazy units %0.f; eager decrypt should cost more", eager, lazy)
	}
}

func TestLockedCardRefusesEgress(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(t, k, EFW(), Standard())
	a.locked = true
	if a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB) {
		t.Error("locked card transmitted")
	}
	if a.Stats().TxDrops[tracing.DropAgentNotReady] != 1 {
		t.Errorf("tx agent-not-ready drops = %d, want 1", a.Stats().TxDrops[tracing.DropAgentNotReady])
	}
}
