package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
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
	d := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 1, seg.Marshal(serverIP, ipB))
	a.Send(d, macB)

	// The same segment from any other address is denied.
	other := packet.MustIP("10.0.0.77")
	seg2 := &packet.TCPSegment{SrcPort: 33000, DstPort: 4747, Flags: packet.FlagSYN}
	d2 := packet.NewDatagram(other, ipB, packet.ProtoTCP, 2, seg2.Marshal(other, ipB))
	a.Send(d2, macB)

	// And a non-management port from the server is denied too.
	seg3 := &packet.TCPSegment{SrcPort: 33000, DstPort: 80, Flags: packet.FlagSYN}
	d3 := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 3, seg3.Marshal(serverIP, ipB))
	a.Send(d3, macB)

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want only the management segment", delivered)
	}
	if b.Stats().RxDenied != 2 {
		t.Errorf("RxDenied = %d, want 2", b.Stats().RxDenied)
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
	d := packet.NewDatagram(ipA, serverIP, packet.ProtoTCP, 1, seg.Marshal(ipA, serverIP))
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
	d := packet.NewDatagram(serverIP, ipB, packet.ProtoTCP, 1, seg.Marshal(serverIP, ipB))
	a.Send(d, macB)
	if err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("management traffic passed a wedged card")
	}
}

func TestSendRawFrameBypassesPolicy(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, EFW(), Standard())
	a.InstallRuleSet(fw.MustRuleSet(fw.Deny))
	delivered := 0
	b.SetDeliver(func(f *packet.Frame) { delivered++ })

	d := udpDatagram(ipA, ipB, 1, 2, 32)
	f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.Marshal()}
	if !a.SendRawFrame(f) {
		t.Fatal("raw frame refused")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (raw injection skips egress policy)", delivered)
	}
}

func TestSendRawFrameHonorsLockup(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(t, k, EFW(), Standard())
	a.locked = true
	f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4}
	if a.SendRawFrame(f) {
		t.Error("locked card transmitted a raw frame")
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
	if st.TxDenied != 0 {
		t.Errorf("TxDenied = %d, want 0: malformed egress is not a policy deny", st.TxDenied)
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
	if p.OverloadDrops() != 6 {
		t.Errorf("OverloadDrops = %d, want 6", p.OverloadDrops())
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

func TestProcessorReset(t *testing.T) {
	k := sim.NewKernel()
	p := NewProcessor(k, 100, 8)
	p.Admit(1000) // 10 seconds of work
	if p.Backlog() == 0 {
		t.Fatal("no backlog after admit")
	}
	p.Reset()
	if p.Backlog() != 0 || p.Queued() != 0 {
		t.Error("Reset did not clear the processor")
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
	rs, err := fw.DepthRuleSet(16, fw.Rule{
		Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoUDP, DstPorts: fw.Ports(1000, 2000),
	}, fw.Deny)
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
	st := b.Stats()
	accounted := st.RxAllowed + st.RxDenied + st.RxOverloadDrops + st.RxMalformed +
		st.RxLockedDrops + st.RxAuthFailures + st.RxReplayDrops + st.RxNoGroup
	if accounted != st.RxFrames {
		t.Errorf("accounting leak: frames=%d accounted=%d (%+v)", st.RxFrames, accounted, st)
	}
	if uint64(delivered) != st.RxAllowed {
		t.Errorf("delivered %d != RxAllowed %d", delivered, st.RxAllowed)
	}
	if st.RxOverloadDrops == 0 || st.RxDenied == 0 || st.RxAllowed == 0 {
		t.Errorf("test did not exercise all dispositions: %+v", st)
	}
}
