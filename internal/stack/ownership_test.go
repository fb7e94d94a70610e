package stack

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// poisonByte overwrites a delivered frame's buffer once its delivery
// has returned.
const poisonByte = 0xa5

// poisonDelivered rewires h's card so that, each time a delivery
// returns, the delivered frame's whole buffer is filled with poisonByte:
// a plain frame's pooled buffer before the card releases it, an opened
// frame's card-owned one before the next open reuses it. A handler that
// kept any byte of a delivered frame would then read poison on its next
// look.
func poisonDelivered(h *Host) {
	h.NIC().SetDeliver(func(f *packet.Frame) {
		h.receive(f)
		for i, b := 0, f.Payload[:cap(f.Payload)]; i < len(b); i++ {
			b[i] = poisonByte
		}
	})
}

// lossyPlan drops and reorders enough of a bulk transfer that the
// receiver's out-of-order queue and the sender's recovery both run.
var lossyPlan = faults.Plan{Loss: 0.01, Reorder: 0.02}

// vpgPair returns two ADF hosts in one VPG group, with a lossy,
// reordering link out of a so the receiver's out-of-order queue is
// exercised.
func vpgPair(t *testing.T) (*net, *Host, *Host) {
	t.Helper()
	nw := newNet(t)
	a := nw.addHost(t, "a", "10.0.0.1", nic.ADF(), nil)
	b := nw.addHost(t, "b", "10.0.0.2", nic.ADF(), nil)
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), a.IP(), b.IP())
	if err != nil {
		t.Fatal(err)
	}
	prefix := packet.MustPrefix("10.0.0.0/24")
	for _, h := range []*Host{a, b} {
		if err := h.NIC().InstallGroup(g, h.IP()); err != nil {
			t.Fatal(err)
		}
		h.NIC().InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", h.IP(), prefix)...))
	}
	a.NIC().Endpoint().SetFaults(lossyPlan, 5)
	return nw, a, b
}

// plainPair returns two standard hosts with the same lossy, reordering
// link out of a: every frame they exchange is a pooled one.
func plainPair(t *testing.T) (*net, *Host, *Host) {
	t.Helper()
	nw, a, b := twoHosts(t)
	a.NIC().Endpoint().SetFaults(lossyPlan, 5)
	return nw, a, b
}

// exchangeResult is everything a run shows: what each side received and
// every counter on the path.
type exchangeResult struct {
	Received     []byte
	Replies      [][]byte
	ConnA, ConnB ConnStats
	HostA, HostB Stats
	NICA, NICB   nic.Stats
	Executed     uint64
	End          time.Duration
}

// finish records the hosts' counters and the kernel's position.
func (r *exchangeResult) finish(k *sim.Kernel, a, b *Host) {
	r.HostA, r.HostB = a.Stats(), b.Stats()
	r.NICA, r.NICB = a.NIC().Stats(), b.NIC().Stats()
	r.Executed, r.End = k.Executed(), k.Now()
}

// bulkRun pushes a patterned 512 KB stream from a to b of pair over
// TCP, iperf style: refill on every ACK.
func bulkRun(pair func(*testing.T) (*net, *Host, *Host)) func(*testing.T, bool) exchangeResult {
	return func(t *testing.T, poison bool) exchangeResult {
		nw, a, b := pair(t)
		if poison {
			poisonDelivered(a)
			poisonDelivered(b)
		}
		stream := make([]byte, 512<<10)
		rand.New(rand.NewSource(9)).Read(stream)
		var res exchangeResult
		var server *Conn
		if _, err := b.ListenTCP(5001, func(c *Conn) {
			server = c
			c.OnData = func(p []byte) { res.Received = append(res.Received, p...) }
		}); err != nil {
			t.Fatal(err)
		}
		c, err := a.DialTCP(b.IP(), 5001)
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		fill := func() {
			for c.Buffered() < 64<<10 && sent < len(stream) {
				n := min(16<<10, len(stream)-sent)
				if err := c.Write(stream[sent : sent+n]); err != nil {
					t.Fatal(err)
				}
				sent += n
			}
		}
		c.OnConnect = fill
		c.OnAcked = func(int) { fill() }
		if err := nw.kernel.RunUntil(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Received, stream) {
			t.Fatalf("received %d bytes that differ from the %d written", len(res.Received), len(stream))
		}
		if c.Stats().Retransmits == 0 || server.Stats().DupAcksSent == 0 {
			t.Fatalf("no loss recovery (retransmits %d, dup ACKs %d); the run must exercise the out-of-order queue",
				c.Stats().Retransmits, server.Stats().DupAcksSent)
		}
		res.ConnA, res.ConnB = c.Stats(), server.Stats()
		res.finish(nw.kernel, a, b)
		return res
	}
}

// udpEcho sends 200 random datagrams from client to server, which
// echoes each one from inside OnRecv (straight out of the delivered
// frame), and records both directions.
func udpEcho(t *testing.T, k *sim.Kernel, client, server *Host) exchangeResult {
	var res exchangeResult
	srv, err := server.BindUDP(7000)
	if err != nil {
		t.Fatal(err)
	}
	srv.OnRecv = func(src packet.IP, port uint16, p []byte) {
		res.Received = append(res.Received, p...)
		srv.SendTo(src, port, p)
	}
	cli, err := client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.OnRecv = func(_ packet.IP, _ uint16, p []byte) {
		res.Replies = append(res.Replies, append([]byte(nil), p...))
	}
	// Payloads up to the largest that fits one frame, sealed or not.
	maxPayload := packet.MaxPayload - packet.IPv4HeaderLen - packet.UDPHeaderLen - client.card.SealOverhead()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := make([]byte, 1+rng.Intn(maxPayload))
		rng.Read(p)
		k.At(time.Duration(i)*100*time.Microsecond, func() { cli.SendTo(server.IP(), 7000, p) })
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(res.Replies) == 0 {
		t.Fatal("no reply came back")
	}
	res.finish(k, client, server)
	return res
}

// echoRun is udpEcho over pair. The first datagram goes to a MAC the
// switch has not learned, so the run also carries the switch's pooled
// flood copies.
func echoRun(pair func(*testing.T) (*net, *Host, *Host)) func(*testing.T, bool) exchangeResult {
	return func(t *testing.T, poison bool) exchangeResult {
		nw, a, b := pair(t)
		if poison {
			poisonDelivered(a)
			poisonDelivered(b)
		}
		res := udpEcho(t, nw.kernel, a, b)
		if nw.sw.Stats().Flooded == 0 {
			t.Fatal("the switch flooded no frame; the run must exercise its flood copies")
		}
		return res
	}
}

// runPing sends 100 ICMP echo requests from a to b over the lossy
// plain pair and records every echo reply a hears.
func runPing(t *testing.T, poison bool) exchangeResult {
	nw, a, b := plainPair(t)
	if poison {
		poisonDelivered(a)
		poisonDelivered(b)
	}
	var res exchangeResult
	a.OnICMP = func(src packet.IP, m packet.ICMPMessage) {
		res.Replies = append(res.Replies, []byte{byte(m.Type), byte(m.Seq >> 8), byte(m.Seq)})
	}
	for i := 0; i < 100; i++ {
		seq := uint16(i)
		nw.kernel.At(time.Duration(i)*time.Millisecond, func() { a.Ping(b.IP(), 7, seq) })
	}
	if err := nw.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(res.Replies) == 0 {
		t.Fatal("no echo reply came back")
	}
	res.finish(nw.kernel, a, b)
	return res
}

// TestOpenedFrameOwnership holds the receive path to the card's
// ownership rule: every delivered frame, plain or opened, is the card's
// and is released or reused once deliver returns. Poisoning each one's
// buffer after every delivery must not change a run in any byte or
// counter, over plain and sealed TCP bulk transfers, plain and sealed
// UDP echoes and ICMP pings.
func TestOpenedFrameOwnership(t *testing.T) {
	for name, run := range map[string]func(*testing.T, bool) exchangeResult{
		"tcp-bulk":       bulkRun(vpgPair),
		"udp-echo":       echoRun(vpgPair),
		"plain-tcp-bulk": bulkRun(plainPair),
		"plain-udp-echo": echoRun(plainPair),
		"icmp-ping":      runPing,
	} {
		t.Run(name, func(t *testing.T) {
			clean, poisoned := run(t, false), run(t, true)
			if !reflect.DeepEqual(clean, poisoned) {
				t.Fatalf("poisoning delivered frames changed the run:\nclean    %+v\npoisoned %+v",
					summary(clean), summary(poisoned))
			}
		})
	}
}

// summary drops the byte payloads from a result for a readable failure.
func summary(r exchangeResult) exchangeResult {
	r.Received, r.Replies = nil, nil
	return r
}

// TestOpenPanicsWhenReentered: a deliver handler that makes its card
// open another frame while the first is still lent must panic rather
// than overwrite the frame it is handling.
func TestOpenPanicsWhenReentered(t *testing.T) {
	nw, a, b := vpgPair(t)
	a.NIC().Endpoint().SetFaults(faults.Plan{}, 0)
	var first *packet.Frame
	card := b.NIC()
	card.SetDeliver(func(f *packet.Frame) {
		if first == nil {
			first = f
			// Drive the kernel from inside deliver so the second
			// sealed datagram is opened while the first is lent.
			defer func() {
				if recover() == nil {
					t.Error("open did not panic when re-entered")
				}
			}()
			if err := nw.kernel.RunUntil(time.Second); err != nil {
				t.Error(err)
			}
		}
	})
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(b.IP(), 7000, []byte("one"))
	cli.SendTo(b.IP(), 7000, []byte("two"))
	if err := nw.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("nothing was delivered")
	}
}
