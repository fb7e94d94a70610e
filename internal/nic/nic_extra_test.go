package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

func TestManagementBypassExemptsControlChannel(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny)) // deny everything
	serverIP := packet.MustIP("10.0.0.10")
	b.SetManagementBypass(serverIP, 4747)

	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	// A TCP segment from the policy server to the agent port passes the
	// deny-all policy.
	seg := &packet.TCPSegment{SrcPort: 33000, DstPort: 4747, Flags: packet.FlagSYN}
	d := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 1, seg.MarshalTo(serverIP, ipB, nil))
	a.Send(d, macB)

	// The same segment from any other address is denied.
	other := packet.MustIP("10.0.0.77")
	seg2 := &packet.TCPSegment{SrcPort: 33000, DstPort: 4747, Flags: packet.FlagSYN}
	d2 := packet.NewDatagram(other, ipB, packet.ProtoTCP, 2, seg2.MarshalTo(other, ipB, nil))
	a.Send(d2, macB)

	// And a non-management port from the server is denied too.
	seg3 := &packet.TCPSegment{SrcPort: 33000, DstPort: 80, Flags: packet.FlagSYN}
	d3 := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 3, seg3.MarshalTo(serverIP, ipB, nil))
	a.Send(d3, macB)

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want only the management segment", delivered)
	}
	if b.Stats().RxDrops[tracing.DropRuleDeny] != 2 {
		t.Errorf("rx rule-deny drops = %d, want 2", b.Stats().RxDrops[tracing.DropRuleDeny])
	}
}

func TestManagementBypassEgress(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, EFW(), Standard())
	a.InstallRuleSet(fw.MustRuleSet(fw.Deny))
	serverIP := packet.MustIP("10.0.0.10")
	a.SetManagementBypass(serverIP, 4747)

	// Agent reply toward the server from the management port passes.
	seg := &packet.TCPSegment{SrcPort: 4747, DstPort: 33000, Flags: packet.FlagSYN | packet.FlagACK}
	d := packet.NewDatagram(ipA, serverIP, packet.ProtoTCP, 1, seg.MarshalTo(ipA, serverIP, nil))
	if !a.Send(d, macB) {
		t.Error("management egress denied")
	}
	// Anything else is denied.
	u := udpDatagram(ipA, ipB, 1, 2, 10)
	if a.Send(u, macB) {
		t.Error("non-management egress allowed through deny-all")
	}
	_ = b
}

func TestManagementBypassDoesNotSurviveLockup(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny))
	serverIP := packet.MustIP("10.0.0.10")
	b.SetManagementBypass(serverIP, 4747)

	// Lock the card with a denied flood.
	interval := time.Second / 1500
	for i := 0; i < 1500; i++ {
		d := udpDatagram(ipA, ipB, 1, 2, 64)
		k.At(time.Duration(i)*interval, func() { a.Send(d, macB) })
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !b.Locked() {
		t.Fatal("card did not lock")
	}
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })
	seg := &packet.TCPSegment{SrcPort: 33000, DstPort: 4747, Flags: packet.FlagSYN}
	d := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 1, seg.MarshalTo(serverIP, ipB, nil))
	a.Send(d, macB)
	if err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("management traffic passed a wedged card")
	}
}

// TestMalformedEgressIsNotPolicyDeny: a datagram the card cannot
// summarize is a malformed drop, not a policy deny, and the tx
// conservation law still holds.
func TestMalformedEgressIsNotPolicyDeny(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(t, k, EFW(), Standard())
	a.InstallRuleSet(depth64Allow(t))
	// 5 bytes cannot hold a 20-byte TCP header.
	d := packet.NewDatagram(ipA, ipB, packet.ProtoTCP, 1, make([]byte, 5))
	if a.Send(d, macB) {
		t.Fatal("malformed datagram accepted for transmission")
	}
	st := a.Stats()
	_, tx := a.DropCounts()
	if st.TxDrops[tracing.DropRuleDeny] != 0 {
		t.Errorf("tx rule-deny drops = %d, want 0: malformed egress is not a policy deny", st.TxDrops[tracing.DropRuleDeny])
	}
	if tx[tracing.DropMalformed] != 1 {
		t.Errorf("tx malformed drops = %d, want 1", tx[tracing.DropMalformed])
	}
	var drops uint64
	for _, n := range tx {
		drops += n
	}
	if st.TxRequests != st.TxAllowed+drops {
		t.Errorf("TxRequests %d != TxAllowed %d + tx drops %d", st.TxRequests, st.TxAllowed, drops)
	}
}

func TestProfileCostShape(t *testing.T) {
	p := EFW()
	base := p.Cost(0, 0)
	if base != p.BaseCost {
		t.Errorf("cost(0,0) = %v, want base %v", base, p.BaseCost)
	}
	if got, want := p.Cost(64, 0), p.BaseCost+64*p.PerRuleCost; got != want {
		t.Errorf("cost(64,0) = %v, want %v", got, want)
	}
	adf := ADF()
	withCrypto := adf.Cost(2, 1000)
	without := adf.Cost(2, 0)
	if want := adf.CryptoPerPacket + 1000*adf.CryptoPerByte; withCrypto-without != want {
		t.Errorf("crypto increment = %v, want %v", withCrypto-without, want)
	}
}

func TestProfileCalibrationAnchors(t *testing.T) {
	// The documented calibration identities of DESIGN.md §4 must hold
	// for the shipped profiles (guards against accidental retuning).
	efw := EFW()
	x64 := efw.CapacityUnits / (2 * (efw.BaseCost + 64*efw.PerRuleCost))
	if x64 < 3500 || x64 > 4500 {
		t.Errorf("EFW x(64) = %.0f data pps, want ≈4000 (≈50 Mbps)", x64)
	}
	x16 := efw.CapacityUnits / (2 * (efw.BaseCost + 16*efw.PerRuleCost))
	if x16 < 8127 {
		t.Errorf("EFW x(16) = %.0f data pps, want ≥ wire rate 8127", x16)
	}
	dos1 := efw.CapacityUnits / (2 * (efw.BaseCost + 1))
	if dos1 < 11000 || dos1 > 14000 {
		t.Errorf("EFW 1-rule DoS anchor = %.0f pps, want ≈12,300", dos1)
	}
	adf := ADF()
	a64 := adf.CapacityUnits / (2 * (adf.BaseCost + 64*adf.PerRuleCost))
	if a64 < 2300 || a64 > 3100 {
		t.Errorf("ADF x(64) = %.0f data pps, want ≈2700 (≈33 Mbps)", a64)
	}
	if adf.CapacityUnits != efw.CapacityUnits {
		t.Error("EFW and ADF are the same hardware; budgets must match")
	}
	ng := NextGen()
	if ng.CapacityUnits < 8*efw.CapacityUnits {
		t.Error("NextGen must be an order of magnitude above the EFW")
	}
}

func TestStandardProfileIsWireSpeed(t *testing.T) {
	k := sim.NewKernel()
	p := NewProcessor(k, Standard().CapacityUnits, 0)
	for i := 0; i < 100000; i++ {
		if _, ok := p.Admit(1e9); !ok {
			t.Fatal("wire-speed processor rejected work")
		}
	}
	if p.Backlog() != 0 {
		t.Error("wire-speed processor accumulated backlog")
	}
}

func TestProcessorRingBound(t *testing.T) {
	k := sim.NewKernel()
	p := NewProcessor(k, 1000, 4)
	accepted := 0
	for i := 0; i < 10; i++ {
		if _, ok := p.Admit(10); ok {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d, want ring size 4", accepted)
	}
	if p.Queued() != 4 {
		t.Errorf("Queued = %d, want 4", p.Queued())
	}
	if p.Admitted() != 4 {
		t.Errorf("Admitted = %d, want 4 of 10 offered", p.Admitted())
	}
	// After the queued work completes, the ring frees up.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Queued() != 0 {
		t.Errorf("Queued after drain = %d", p.Queued())
	}
	if _, ok := p.Admit(10); !ok {
		t.Error("drained ring rejected work")
	}
}

func TestNICEndpointAccessor(t *testing.T) {
	k := sim.NewKernel()
	ea, _ := link.New(k, link.Config{})
	n := New(k, macA, Standard(), ea)
	if n.Endpoint() != ea {
		t.Error("Endpoint() does not return the attachment")
	}
}

// Property: the card's counters conserve — every frame addressed to the
// card is accounted for by exactly one disposition.
func TestNICAccountingConservation(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(99))
	a, b := pair(t, k, Standard(), EFW())
	rs, err := fw.DepthRuleSet(fw.Deny, 16, 0, fw.Rule{
		Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoUDP, DstPorts: fw.Ports(1000, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.InstallRuleSet(rs)
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	rng := k.Rand()
	const n = 5000
	interval := time.Second / time.Duration(n) / 4 // 4x overload
	for i := 0; i < n; i++ {
		dport := uint16(rng.Intn(4000))
		d := udpDatagram(ipA, ipB, 1, dport, rng.Intn(1200))
		k.At(time.Duration(i)*interval, func() { a.Send(d, macB) })
	}
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "target", b)
	checkConservation(t, "sender", a)
	st := b.Stats()
	if uint64(delivered) != st.RxAllowed {
		t.Errorf("delivered %d != RxAllowed %d", delivered, st.RxAllowed)
	}
	overload := st.RxDrops[tracing.DropCPUExhausted] + st.RxDrops[tracing.DropQueueOverflow]
	if overload == 0 || st.RxDrops[tracing.DropRuleDeny] == 0 || st.RxAllowed == 0 {
		t.Errorf("test did not exercise all dispositions: %+v", st)
	}
}

// checkConservation holds one card to the per-direction packet laws:
// every egress request is transmitted or dropped exactly once, and
// every frame addressed to the card is delivered, dropped exactly once,
// or still on the processor ring.
func checkConservation(t *testing.T, name string, n *NIC) {
	t.Helper()
	st := n.Stats()
	var rx, tx uint64
	for r := range st.RxDrops {
		rx += st.RxDrops[r]
		tx += st.TxDrops[r]
	}
	if st.TxRequests != st.TxAllowed+tx {
		t.Errorf("%s: %d tx requests != %d allowed + %d dropped (%v)", name, st.TxRequests, st.TxAllowed, tx, st.TxDrops)
	}
	if ring := uint64(n.QueueDepth()); st.RxFrames != st.RxAllowed+rx+ring {
		t.Errorf("%s: %d rx frames != %d delivered + %d dropped + %d on the ring (%v)", name, st.RxFrames, st.RxAllowed, rx, ring, st.RxDrops)
	}
}

// TestNICConservationEveryDropReason drives each card drop reason in the
// direction(s) it can occur and holds both cards of the pair to the
// conservation laws: a reason counted twice, or a drop counted nowhere,
// breaks them.
func TestNICConservationEveryDropReason(t *testing.T) {
	sealedFrame := func(t *testing.T, key string, seq uint64) *packet.Frame {
		g, err := vpg.NewGroup("psq", vpg.DeriveKey(key), ipA, ipB)
		if err != nil {
			t.Fatal(err)
		}
		env, err := g.Seal(nil, ipA, ipB, packet.ProtoUDP, make([]byte, 64), seq)
		if err != nil {
			t.Fatal(err)
		}
		outer := packet.NewDatagram(ipA, ipB, packet.ProtoVPGEncap, 9, env)
		return &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeVPG, Payload: outer.MarshalTo(nil)}
	}
	degradedPair := func(t *testing.T, k *sim.Kernel, mode FailMode) (*NIC, *NIC) {
		a, b := pair(t, k, EFW(), EFW())
		a.InstallRuleSet(fw.MustRuleSet(fw.Allow))
		b.InstallRuleSet(fw.MustRuleSet(fw.Allow))
		a.Degrade(mode, RecoveryResync)
		a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
		a.Endpoint().Send(&packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: udpDatagram(ipA, ipB, 1, 2, 10).MarshalTo(nil)})
		b.Send(udpDatagram(ipB, ipA, 2, 1, 10), macA)
		return a, b
	}
	cases := []struct {
		name   string
		dir    fw.Direction
		reason tracing.DropReason // DropNone: check the fail-open pass instead
		drive  func(t *testing.T, k *sim.Kernel) (subject, peer *NIC)
	}{
		{"locked", fw.In, tracing.DropAgentNotReady, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Standard(), EFW())
			b.locked = true
			a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			return b, a
		}},
		{"locked", fw.Out, tracing.DropAgentNotReady, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, EFW(), Standard())
			a.locked = true
			a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			return a, b
		}},
		{"malformed", fw.In, tracing.DropMalformed, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Standard(), EFW())
			a.Endpoint().Send(&packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: []byte{0x45, 0}})
			return b, a
		}},
		{"malformed", fw.Out, tracing.DropMalformed, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, EFW(), Standard())
			a.Send(packet.NewDatagram(ipA, ipB, packet.ProtoTCP, 1, make([]byte, 5)), macB)
			return a, b
		}},
		{"invalid", fw.In, tracing.DropNoState, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Standard(), Stateful())
			b.InstallRuleSet(statefulRules())
			a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagACK), macB)
			return b, a
		}},
		{"invalid", fw.Out, tracing.DropNoState, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Stateful(), Standard())
			a.InstallRuleSet(statefulRules())
			a.Send(tcpDgram(ipA, ipB, 41000, 2000, packet.FlagACK), macB)
			return a, b
		}},
		{"deny", fw.In, tracing.DropRuleDeny, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Standard(), EFW())
			b.InstallRuleSet(fw.MustRuleSet(fw.Deny))
			a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			return b, a
		}},
		{"deny", fw.Out, tracing.DropRuleDeny, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, EFW(), Standard())
			a.InstallRuleSet(fw.MustRuleSet(fw.Deny))
			a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			return a, b
		}},
		{"state-full", fw.In, tracing.DropStateTableFull, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			prof := Stateful()
			prof.ConntrackEntries = 1
			prof.ConntrackEvict = conntrack.EvictSYNDrop
			a, b := pair(t, k, Standard(), prof)
			b.InstallRuleSet(statefulRules())
			establish(t, k, a, b, 41000)
			a.Send(tcpDgram(ipA, ipB, 41001, 2000, packet.FlagSYN), macB)
			return b, a
		}},
		{"overload", fw.In, tracing.DropCPUExhausted, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, Standard(), EFW())
			b.InstallRuleSet(depth64Allow(t))
			for i := 0; i < 2*DefaultQueuePackets; i++ {
				a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			}
			return b, a
		}},
		{"overload", fw.Out, tracing.DropCPUExhausted, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, EFW(), Standard())
			a.InstallRuleSet(depth64Allow(t))
			for i := 0; i < 2*DefaultQueuePackets; i++ {
				a.Send(udpDatagram(ipA, ipB, 1, 2, 10), macB)
			}
			return a, b
		}},
		{"fail-closed", fw.In, tracing.DropDegraded, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := degradedPair(t, k, FailModeClosed)
			return a, b
		}},
		{"fail-closed", fw.Out, tracing.DropDegraded, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := degradedPair(t, k, FailModeClosed)
			return a, b
		}},
		{"fail-open", fw.Both, tracing.DropNone, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := degradedPair(t, k, FailModeOpen)
			return a, b
		}},
		{"oversize", fw.Out, tracing.DropOversize, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b, _ := vpgPair(t, k)
			a.Send(udpDatagram(ipA, ipB, 1, 2000, packet.MaxPayload-packet.IPv4HeaderLen-packet.UDPHeaderLen), macB)
			return a, b
		}},
		{"no-group", fw.Out, tracing.DropNoGroup, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b := pair(t, k, ADF(), ADF())
			a.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", ipA, packet.MustPrefix("10.0.0.0/24"))...))
			a.Send(udpDatagram(ipA, ipB, 1, 2000, 64), macB)
			return a, b
		}},
		{"no-group", fw.In, tracing.DropNoGroup, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b, _ := vpgPair(t, k)
			delete(b.groups, "psq")
			a.Send(udpDatagram(ipA, ipB, 1, 2000, 64), macB)
			return b, a
		}},
		{"auth-fail", fw.In, tracing.DropAuthFail, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b, _ := vpgPair(t, k)
			a.Endpoint().Send(sealedFrame(t, "WRONG", 99))
			return b, a
		}},
		{"replay", fw.In, tracing.DropReplay, func(t *testing.T, k *sim.Kernel) (*NIC, *NIC) {
			a, b, _ := vpgPair(t, k)
			f := sealedFrame(t, "k", 7)
			replay := f.Clone()
			a.Endpoint().Send(f)
			a.Endpoint().Send(replay)
			return b, a
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.dir.String(), func(t *testing.T) {
			k := sim.NewKernel()
			subject, peer := tc.drive(t, k)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			st := subject.Stats()
			switch {
			case tc.reason == tracing.DropNone:
				if st.DegradedPass == 0 {
					t.Errorf("no fail-open pass: %+v", st)
				}
			case tc.dir == fw.In && st.RxDrops[tc.reason] == 0,
				tc.dir == fw.Out && st.TxDrops[tc.reason] == 0:
				t.Errorf("no %v %v drop: rx %v tx %v", tc.dir, tc.reason, st.RxDrops, st.TxDrops)
			}
			checkConservation(t, "subject", subject)
			checkConservation(t, "peer", peer)
		})
	}
}

// TestIngressPathAllocFree gates the untraced ingress path — handleFrame
// plus the processor-completion and delivery events it schedules — at
// zero allocations per frame for the verdict shapes the experiments
// drive hardest: an allow and a deny, an allow 64 rules deep, a
// cleartext allow past a VPG pair, a stateful established flow and a
// flow-cache hit. AllocsPerRun's warm-up packet pays the rule set's
// one compilation; every later packet must allocate nothing.
func TestIngressPathAllocFree(t *testing.T) {
	udpTo := func(port uint16) *packet.Frame {
		d := udpDatagram(ipA, ipB, 1000, port, 100)
		return &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}
	}
	allow2000 := func() *fw.RuleSet {
		return fw.MustRuleSet(fw.Deny,
			fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, DstPorts: fw.Port(2000)})
	}
	cases := []struct {
		name string
		card func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame)
	}{
		{"efw-allow", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, EFW(), ep)
			n.InstallRuleSet(allow2000())
			return n, udpTo(2000)
		}},
		{"efw-deny", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, EFW(), ep)
			n.InstallRuleSet(allow2000())
			return n, udpTo(2001)
		}},
		{"stateful-established", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, Stateful(), ep)
			n.InstallRuleSet(statefulRules())
			n.handleFrame(tcpFrame(ipA, ipB, 40000, 2000, packet.FlagSYN))
			n.Send(tcpDgram(ipB, ipA, 2000, 40000, packet.FlagSYN|packet.FlagACK), macA)
			n.handleFrame(tcpFrame(ipA, ipB, 40000, 2000, packet.FlagACK))
			return n, tcpFrame(ipA, ipB, 40000, 2000, packet.FlagACK|packet.FlagPSH)
		}},
		{"efw-depth64", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, EFW(), ep)
			rs, err := fw.DepthRuleSet(fw.Deny, 64, 0, allow2000().Rules()[0])
			if err != nil {
				t.Fatal(err)
			}
			n.InstallRuleSet(rs)
			return n, udpTo(2000)
		}},
		{"adf-vpg-pair", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, ADF(), ep)
			g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InstallGroup(g, ipB); err != nil {
				t.Fatal(err)
			}
			rules := append(fw.VPGRulePair("psq", ipB, packet.MustPrefix("10.0.0.0/24")), allow2000().Rules()...)
			n.InstallRuleSet(fw.MustRuleSet(fw.Deny, rules...))
			return n, udpTo(2000)
		}},
		{"nextgen-cache-hit", func(k *sim.Kernel, ep *link.Endpoint) (*NIC, *packet.Frame) {
			n := New(k, macB, NextGen(), ep)
			n.InstallRuleSet(depth64Allow(t))
			return n, udpTo(2000)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			_, ep := link.New(k, link.Config{QueueFrames: 1 << 16})
			n, f := tc.card(k, ep)
			n.SetDeliver(func(*packet.Frame) {})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			before := n.Stats()
			allocs := testing.AllocsPerRun(100, func() {
				n.handleFrame(f)
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%.2f allocs per frame, want 0", allocs)
			}
			st := n.Stats()
			passed, denied := st.RxAllowed-before.RxAllowed, st.RxDrops[tracing.DropRuleDeny]-before.RxDrops[tracing.DropRuleDeny]
			if want := uint64(101); passed+denied != want || (tc.name == "efw-deny") != (denied == want) {
				t.Errorf("%d frames passed, %d denied; want all %d %s", passed, denied, want, tc.name)
			}
			if tc.name == "nextgen-cache-hit" && n.FlowCacheStats().Hits < 100 {
				t.Errorf("flow-cache hits = %d, want every frame after the first", n.FlowCacheStats().Hits)
			}
		})
	}
}

// TestOpenAllocatesOnlyKeystream: the ingress path of a sealed frame
// opens into the card's own buffer and frame, so after the first frame
// it allocates only cipher.NewCTR's keystream, and every delivery sees
// the same lent frame.
func TestOpenAllocatesOnlyKeystream(t *testing.T) {
	k := sim.NewKernel()
	a, b, _ := vpgPair(t, k)
	sealed := make([]*packet.Frame, 102)
	for i := range sealed {
		f, ok := a.seal("psq", udpDatagram(ipA, ipB, 1000, 2000, 1200), macB)
		if !ok {
			t.Fatal("seal failed")
		}
		sealed[i] = f
	}
	lent := map[*packet.Frame]bool{}
	b.SetDeliver(func(f *packet.Frame) { lent[f] = true })
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		b.handleFrame(sealed[next])
		next++
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("%.2f allocs per sealed frame, want 1 (the CTR keystream)", allocs)
	}
	if got := b.Stats().Opened; got != uint64(next) {
		t.Fatalf("opened %d of %d sealed frames", got, next)
	}
	if len(lent) != 1 {
		t.Errorf("deliver saw %d distinct frames, want the card's one", len(lent))
	}
}
