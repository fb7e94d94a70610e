package nic

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

func tcpFrame(src, dst packet.IP, sport, dport uint16, flags packet.TCPFlags) *packet.Frame {
	seg := &packet.TCPSegment{SrcPort: sport, DstPort: dport, Flags: flags, Window: 65535}
	d := packet.NewDatagram(src, dst, packet.ProtoTCP, 1, seg.Marshal(src, dst))
	return &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.Marshal()}
}

// benchRxStateful drives the stateful card's ingress: conntrack
// classify, compiled/cached rule match, conntrack commit. Both
// variants are regression-gated at 0 allocs/op — connection tracking
// must not cost the fast path its allocation-free contract.
func benchRxStateful(b *testing.B, invalid bool) {
	k := sim.NewKernel()
	_, eb := link.New(k, link.Config{QueueFrames: 1 << 16})
	n := New(k, macB, Stateful(), eb)
	n.InstallRuleSet(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP,
			DstPorts: fw.Port(2000), States: fw.MaskOf(fw.StateNew)},
		fw.Rule{Action: fw.Allow, Direction: fw.Both,
			States: fw.MaskOf(fw.StateEstablished, fw.StateRelated)},
	))
	n.SetDeliver(func(f *packet.Frame) {})

	// Establish the flow: ingress SYN, egress SYN/ACK, ingress ACK —
	// the entry the hit path will be measured against.
	n.handleFrame(tcpFrame(ipA, ipB, 40000, 2000, packet.FlagSYN))
	seg := &packet.TCPSegment{SrcPort: 2000, DstPort: 40000,
		Flags: packet.FlagSYN | packet.FlagACK, Window: 65535}
	n.Send(packet.NewDatagram(ipB, ipA, packet.ProtoTCP, 2, seg.Marshal(ipB, ipA)), macA)
	n.handleFrame(tcpFrame(ipA, ipB, 40000, 2000, packet.FlagACK))
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}

	f := tcpFrame(ipA, ipB, 40000, 2000, packet.FlagACK|packet.FlagPSH)
	if invalid {
		// Untracked mid-stream ACK: the ACK-flood drop path — one
		// table lookup, no rule walk, no state created.
		f = tcpFrame(ipA, ipB, 41000, 2000, packet.FlagACK)
	}
	base := n.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.handleFrame(f)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if invalid {
		if got := n.Stats().RxDrops[tracing.DropNoState] - base.RxDrops[tracing.DropNoState]; got != uint64(b.N) {
			b.Fatalf("no-state drops = %d, want %d", got, b.N)
		}
		return
	}
	if got := n.Stats().RxAllowed - base.RxAllowed; got != uint64(b.N) {
		b.Fatalf("rx allowed = %d, want %d", got, b.N)
	}
	if n.ConntrackStats().Hits == 0 {
		b.Fatal("conntrack never hit")
	}
}

func BenchmarkRxPathStateful(b *testing.B) {
	b.Run("established-hit", func(b *testing.B) { benchRxStateful(b, false) })
	b.Run("invalid-drop", func(b *testing.B) { benchRxStateful(b, true) })
}
