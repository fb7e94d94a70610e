package telemetry

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic"
	"barbican/internal/obs"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// benchHost builds an EFW-protected host with a telemetry agent
// attached, plus the far endpoint of its link for injecting ingress
// frames. The rule set admits UDP/2000 in (the bench traffic) and UDP
// out (the agent's reports); everything else is denied, so the card
// walks real policy on both paths.
func benchHost(b *testing.B) (*sim.Kernel, *link.Endpoint, *nic.NIC, *Agent) {
	b.Helper()
	k := sim.NewKernel()
	ea, eb := link.New(k, link.Config{QueueFrames: 1 << 16})
	ea.Attach(func(*packet.Frame) {})
	card := nic.New(k, packet.MAC{0x02, 0, 0, 0, 0, 2}, nic.EFW(), eb)
	card.InstallRuleSet(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, DstPorts: fw.Port(2000)},
		fw.Rule{Action: fw.Allow, Direction: fw.Out, Proto: packet.ProtoUDP},
	))
	host, err := stack.NewHost(k, stack.Config{
		Name: "bench",
		IP:   packet.MustIP("10.0.0.2"),
		NIC:  card,
		Resolve: func(packet.IP) (packet.MAC, bool) {
			return packet.MAC{0x02, 0, 0, 0, 0, 1}, true
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(host, AgentConfig{
		Device:    "bench",
		Collector: packet.MustIP("10.0.0.10"),
	})
	if err != nil {
		b.Fatal(err)
	}
	// The bench sinks ingress frames itself; no sockets receive.
	card.SetDeliver(func(*packet.Frame) {})
	return k, ea, card, agent
}

// BenchmarkTelemetrySnapshotEncode measures the agent's steady-state
// report build: snapshot every card counter and wire-encode into the
// reused scratch buffer. This is the part that runs on every tick
// regardless of network outcome, and it must stay at 0 allocs/op (the
// bench gate admits no tolerance on allocs).
func BenchmarkTelemetrySnapshotEncode(b *testing.B) {
	_, _, _, agent := benchHost(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.seq++
		agent.Snapshot(&agent.report)
		agent.scratch = AppendReport(agent.scratch[:0], &agent.report)
	}
	if len(agent.scratch) == 0 {
		b.Fatal("empty encoded report")
	}
}

// BenchmarkTelemetryReportNow covers the full per-tick path: snapshot,
// encode, and UDP transmission through the host stack and card egress.
// The departing frame escapes into the network, so like the flood
// injector this path keeps a small constant allocation count; the
// benchmark tracks it so regressions surface.
func BenchmarkTelemetryReportNow(b *testing.B) {
	k, _, _, agent := benchHost(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !agent.ReportNow() {
			b.Fatal("report refused")
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRxPathTelemetry drives the card's ingress path with a
// telemetry agent attached and its metrics published — the satellite
// contract that observability rides along for free: the agent only
// reads card accessors at report time, so the per-frame hot path must
// stay at 0 allocs/op exactly like the bare BenchmarkRxPath.
func BenchmarkRxPathTelemetry(b *testing.B) {
	k, ea, card, agent := benchHost(b)
	reg := obs.NewRegistry()
	card.PublishMetrics(reg, obs.L("host", "bench"))
	agent.PublishMetrics(reg)
	// Warm the agent's scratch buffer the way a first tick would.
	if !agent.ReportNow() {
		b.Fatal("warm-up report refused")
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}

	u := &packet.UDPDatagram{SrcPort: 1000, DstPort: 2000, Payload: make([]byte, 100)}
	src, dst := packet.MustIP("10.0.0.1"), packet.MustIP("10.0.0.2")
	d := packet.NewDatagram(src, dst, packet.ProtoUDP, 1, u.MarshalTo(src, dst, nil))
	f := &packet.Frame{
		Dst:     packet.MAC{0x02, 0, 0, 0, 0, 2},
		Src:     packet.MAC{0x02, 0, 0, 0, 0, 1},
		Type:    packet.EtherTypeIPv4,
		Payload: d.MarshalTo(nil),
	}
	base := card.Stats().RxAllowed

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ea.Send(f) {
			b.Fatal("link refused frame")
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := card.Stats().RxAllowed - base; got != uint64(b.N) {
		b.Fatalf("rx allowed = %d, want %d", got, b.N)
	}
}
