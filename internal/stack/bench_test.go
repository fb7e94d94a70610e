package stack

import (
	"testing"
	"time"

	"barbican/internal/link"
	"barbican/internal/nic"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// BenchmarkTCPBulkTransfer measures simulator cost per simulated MB of
// TCP transfer over a clean 100 Mbps path.
func BenchmarkTCPBulkTransfer(b *testing.B) {
	const total = 1 << 20
	b.SetBytes(total)
	var transferTime time.Duration
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		sw := link.NewSwitch(k, link.SwitchConfig{Link: link.Config{QueueFrames: 4096}})
		macs := map[packet.IP]packet.MAC{}
		resolve := func(ip packet.IP) (packet.MAC, bool) { m, ok := macs[ip]; return m, ok }
		mk := func(name, ip string, last byte) *Host {
			addr := packet.MustIP(ip)
			mac := packet.MAC{2, 0, 0, 0, 0, last}
			macs[addr] = mac
			card := nic.New(k, mac, nic.Standard(), sw.NewPort())
			h, err := NewHost(k, Config{Name: name, IP: addr, NIC: card, Resolve: resolve, RespondToFloods: true})
			if err != nil {
				b.Fatal(err)
			}
			return h
		}
		a := mk("a", "10.0.0.1", 1)
		bb := mk("b", "10.0.0.2", 2)
		received := 0
		if _, err := bb.ListenTCP(5001, func(c *Conn) {
			c.OnData = func(p []byte) {
				received += len(p)
				if received == total {
					transferTime = k.Now()
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
		c, err := a.DialTCP(bb.IP(), 5001)
		if err != nil {
			b.Fatal(err)
		}
		sent := 0
		fill := func() {
			for c.Buffered() < 128<<10 && sent < total {
				chunk := 64 << 10
				if total-sent < chunk {
					chunk = total - sent
				}
				if err := c.Write(make([]byte, chunk)); err != nil {
					b.Fatal(err)
				}
				sent += chunk
			}
		}
		c.OnConnect = fill
		c.OnAcked = func(int) { fill() }
		if err := k.RunUntil(5 * time.Second); err != nil {
			b.Fatal(err)
		}
		if received != total {
			b.Fatalf("received %d of %d", received, total)
		}
	}
	if transferTime > 0 {
		// Goodput achieved inside the simulation — the figure the
		// bandwidth experiments measure, exported so the benchmark
		// baseline records simulated Mbps alongside simulator cost.
		b.ReportMetric(float64(total)*8/transferTime.Seconds()/1e6, "sim_Mbps")
	}
}

// BenchmarkHostReceive measures the host's receive path for a UDP
// datagram to a bound socket: decode, demultiplex, deliver. It must stay
// at 0 allocs/op.
func BenchmarkHostReceive(b *testing.B) {
	_, src, dst := twoHosts(b)
	srv, err := dst.BindUDP(5001)
	if err != nil {
		b.Fatal(err)
	}
	srv.OnRecv = func(packet.IP, uint16, []byte) {}
	f := udpFrame(src, dst, 5001, make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.receive(f)
	}
	if d, _ := srv.Received(); d != uint64(b.N) {
		b.Fatalf("socket received %d of %d datagrams", d, b.N)
	}
}
