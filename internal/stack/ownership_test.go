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
	"barbican/internal/vpg"
)

// poisonByte overwrites an opened frame's buffer once its delivery has
// returned.
const poisonByte = 0xa5

// poisonOpenBuffer rewires h's card so that, each time delivery of an
// opened VPG frame returns, the card's open buffer is filled with
// poisonByte. A handler that kept any byte of a lent frame would then
// read poison on its next look.
func poisonOpenBuffer(h *Host) {
	card := h.NIC()
	var opened uint64
	card.SetDeliver(func(f *packet.Frame) {
		h.receive(f)
		if o := card.Stats().Opened; o != opened {
			opened = o // f is the card's frame, lent for this call only
			for i, b := 0, f.Payload[:cap(f.Payload)]; i < len(b); i++ {
				b[i] = poisonByte
			}
		}
	})
}

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
	a.NIC().Endpoint().SetFaults(faults.NewInjector(faults.Plan{Loss: 0.01, Reorder: 0.02}, 5))
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

// runVPGBulk pushes a patterned 512 KB stream from a to b over TCP
// through the sealing cards, iperf style: refill on every ACK.
func runVPGBulk(t *testing.T, poison bool) exchangeResult {
	nw, a, b := vpgPair(t)
	if poison {
		poisonOpenBuffer(a)
		poisonOpenBuffer(b)
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
	res.HostA, res.HostB = a.Stats(), b.Stats()
	res.NICA, res.NICB = a.NIC().Stats(), b.NIC().Stats()
	res.Executed, res.End = nw.kernel.Executed(), nw.kernel.Now()
	return res
}

// runVPGUDP sends sealed datagrams from a to b, which echoes each one
// from inside OnRecv (straight out of the lent buffer).
func runVPGUDP(t *testing.T, poison bool) exchangeResult {
	nw, a, b := vpgPair(t)
	if poison {
		poisonOpenBuffer(a)
		poisonOpenBuffer(b)
	}
	var res exchangeResult
	srv, err := b.BindUDP(7000)
	if err != nil {
		t.Fatal(err)
	}
	srv.OnRecv = func(src packet.IP, port uint16, p []byte) {
		res.Received = append(res.Received, p...)
		srv.SendTo(src, port, p)
	}
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.OnRecv = func(_ packet.IP, _ uint16, p []byte) {
		res.Replies = append(res.Replies, append([]byte(nil), p...))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := make([]byte, 1+rng.Intn(a.MaxUDPPayload()))
		rng.Read(p)
		nw.kernel.At(time.Duration(i)*100*time.Microsecond, func() { cli.SendTo(b.IP(), 7000, p) })
	}
	if err := nw.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(res.Replies) == 0 || a.NIC().Stats().Opened == 0 {
		t.Fatal("no sealed reply came back")
	}
	res.HostA, res.HostB = a.Stats(), b.Stats()
	res.NICA, res.NICB = a.NIC().Stats(), b.NIC().Stats()
	res.Executed, res.End = nw.kernel.Executed(), nw.kernel.Now()
	return res
}

// TestOpenedFrameOwnership holds the receive path to the card's
// ownership rule: an opened frame is lent to deliver and reused after
// it returns. Poisoning the card's open buffer after every delivery
// must not change a sealed TCP bulk transfer or a sealed UDP exchange
// in any byte or counter.
func TestOpenedFrameOwnership(t *testing.T) {
	for name, run := range map[string]func(*testing.T, bool) exchangeResult{
		"tcp-bulk": runVPGBulk,
		"udp-echo": runVPGUDP,
	} {
		t.Run(name, func(t *testing.T) {
			clean, poisoned := run(t, false), run(t, true)
			if !reflect.DeepEqual(clean, poisoned) {
				t.Fatalf("poisoning the open buffer changed the run:\nclean    %+v\npoisoned %+v",
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
	a.NIC().Endpoint().SetFaults(nil)
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
