package nic

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/obs"
	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// benchRx drives the card's ingress path — handleFrame plus the kernel
// events it schedules — once per iteration. It backs the zero-cost-
// when-disabled contract: BenchmarkRxPath/instrumented publishes every
// card counter to a registry (no recorder sampling it) and must be
// within noise of BenchmarkRxPath/uninstrumented, because collector
// closures only run at gather time. With sampleEvery > 0 a packet
// tracer is attached and frames are stamped upstream at that 1-in-N
// rate, measuring the tracing overhead documented in DESIGN.md §8.
// With profiled, the wall-domain kernel profiler is attached — the
// documented profiling overhead of DESIGN.md §12. The card's cost
// account records in every variant, so the uninstrumented one holds
// the always-on account at 0 allocs/op.
func benchRx(b *testing.B, instrument bool, sampleEvery int, profiled bool) {
	k := sim.NewKernel()
	_, eb := link.New(k, link.Config{QueueFrames: 1 << 16})
	n := New(k, macB, EFW(), eb)
	n.InstallRuleSet(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, DstPorts: fw.Port(2000)},
	))
	n.SetDeliver(func(f *packet.Frame) {})
	if instrument {
		n.PublishMetrics(obs.NewRegistry(), obs.L("host", "bench"))
	}
	var tr *tracing.Tracer
	if sampleEvery > 0 {
		tr = tracing.New(k, tracing.Options{SampleEvery: sampleEvery})
		n.SetTracer(tr)
	}
	if profiled {
		k.SetStepProfiler(profile.NewKernelProfiler(profile.DefaultKernelSampleEvery))
	}

	d := udpDatagram(ipA, ipB, 1000, 2000, 100)
	f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			// Stamp the frame the way the sending NIC would.
			f.TraceID = 0
			if tr.Take() {
				f.TraceID = tr.Begin("bench udp")
			}
		}
		n.handleFrame(f)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := n.Stats().RxAllowed; got != uint64(b.N) {
		b.Fatalf("rx allowed = %d, want %d", got, b.N)
	}
	if tr != nil && b.N >= sampleEvery && tr.Sampled() == 0 {
		b.Fatal("tracer attached but nothing sampled")
	}
	if got := n.proc.rx.packets; got != uint64(b.N) {
		b.Fatalf("cost account recorded %d rx packets, want %d", got, b.N)
	}
}

func BenchmarkRxPath(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) { benchRx(b, false, 0, false) })
	b.Run("instrumented", func(b *testing.B) { benchRx(b, true, 0, false) })
	b.Run("traced-1in64", func(b *testing.B) { benchRx(b, true, 64, false) })
	b.Run("profiled", func(b *testing.B) { benchRx(b, true, 0, true) })
}
