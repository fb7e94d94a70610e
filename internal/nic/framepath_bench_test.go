package nic

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// framePath is one datagram's whole trip between two cards on a switch:
// Send on a, the processor's completion, a's link, the switch's
// store-and-forward, b's link, b's handleFrame and, for sealed traffic,
// its open, and finally delivery to b's host. run sends one datagram
// and drains the kernel; delivered counts what reached b's host.
type framePath struct {
	run       func()
	delivered *uint64
}

// newFramePath builds the path on a two-port switch. Plain cards are
// EFWs allowing the datagram's port; sealed cards are ADFs sharing one
// VPG. One datagram each way first teaches the switch both MACs, so
// run measures the forwarding path, not the unknown-destination flood.
func newFramePath(tb testing.TB, sealed bool) framePath {
	k := sim.NewKernel()
	sw := link.NewSwitch(k, link.SwitchConfig{})
	prof := EFW()
	if sealed {
		prof = ADF()
	}
	a := New(k, macA, prof, sw.NewPort())
	b := New(k, macB, prof, sw.NewPort())
	if sealed {
		g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
		if err != nil {
			tb.Fatal(err)
		}
		prefix := packet.MustPrefix("10.0.0.0/24")
		for _, c := range []struct {
			n  *NIC
			ip packet.IP
		}{{a, ipA}, {b, ipB}} {
			if err := c.n.InstallGroup(g, c.ip); err != nil {
				tb.Fatal(err)
			}
			c.n.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", c.ip, prefix)...))
		}
	} else {
		rs := fw.MustRuleSet(fw.Deny,
			fw.Rule{Action: fw.Allow, Direction: fw.Out, Proto: packet.ProtoUDP},
			fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP},
		)
		a.InstallRuleSet(rs)
		b.InstallRuleSet(rs)
	}
	var delivered uint64
	b.SetDeliver(func(*packet.Frame) { delivered++ })
	a.SetDeliver(func(*packet.Frame) {})
	ab := udpDatagram(ipA, ipB, 1000, 2000, 100)
	ba := udpDatagram(ipB, ipA, 2000, 1000, 100)
	b.Send(ba, macA)
	a.Send(ab, macB)
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	if delivered != 1 || sw.LearnedPort(macB) < 0 {
		tb.Fatalf("warm-up delivered %d datagrams, learned port of b %d", delivered, sw.LearnedPort(macB))
	}
	delivered = 0
	return framePath{
		run: func() {
			a.Send(ab, macB)
			if err := k.Run(); err != nil {
				tb.Fatal(err)
			}
		},
		delivered: &delivered,
	}
}

// BenchmarkFramePath is the send → deliver path end to end. Neither
// the plain path nor the sealed one allocates.
func BenchmarkFramePath(b *testing.B) {
	for _, c := range []struct {
		name   string
		sealed bool
	}{{"plain", false}, {"sealed", true}} {
		b.Run(c.name, func(b *testing.B) {
			p := newFramePath(b, c.sealed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.run()
			}
			b.StopTimer()
			if *p.delivered != uint64(b.N) {
				b.Fatalf("delivered %d of %d datagrams", *p.delivered, b.N)
			}
		})
	}
}

// TestFramePathAllocs holds BenchmarkFramePath's contract in the test
// suite: with frames drawn from the switch's pool, a datagram costs no
// allocation from Send to delivery, plain or sealed.
func TestFramePathAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		sealed bool
	}{{"plain", false}, {"sealed", true}} {
		t.Run(c.name, func(t *testing.T) {
			p := newFramePath(t, c.sealed)
			if got := testing.AllocsPerRun(200, p.run); got != 0 {
				t.Errorf("%.2f allocs per datagram, want 0", got)
			}
			if *p.delivered != 201 {
				t.Errorf("delivered %d of 201 datagrams", *p.delivered)
			}
		})
	}
}
