package stack

import (
	"bytes"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/vpg"
)

func TestTCPSimultaneousClose(t *testing.T) {
	n, a, b := twoHosts(t)
	var serverConn *Conn
	if _, err := b.ListenTCP(80, func(c *Conn) { serverConn = c }); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	clientClosed, serverClosed := false, false
	c.OnClose = func() { clientClosed = true }
	c.OnConnect = func() {
		// The server's accept callback runs when the final handshake ACK
		// lands; schedule the crossing FINs shortly after.
		n.kernel.After(10*time.Millisecond, func() {
			serverConn.OnClose = func() { serverClosed = true }
			c.Close()
			serverConn.Close()
		})
	}
	if err := n.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !clientClosed || !serverClosed {
		t.Errorf("simultaneous close: client=%v server=%v", clientClosed, serverClosed)
	}
	if st := c.State(); st != StateClosed && st != StateTimeWait {
		t.Errorf("client state %v", st)
	}
}

func TestTCPHalfClose(t *testing.T) {
	// Client closes its send side; server keeps sending afterwards.
	n, a, b := twoHosts(t)
	var serverConn *Conn
	if _, err := b.ListenTCP(80, func(c *Conn) {
		serverConn = c
		c.OnPeerClose = func() {
			// Respond after the client's FIN, then close.
			if err := c.Write([]byte("late response")); err != nil {
				t.Errorf("server write after peer close: %v", err)
			}
			c.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	c.OnData = func(p []byte) { got.Write(p) }
	closed := false
	c.OnClose = func() { closed = true }
	c.OnConnect = func() { c.Close() }
	if err := n.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got.String() != "late response" {
		t.Errorf("half-close data = %q", got.String())
	}
	if !closed {
		t.Error("client never fully closed")
	}
	if serverConn.State() != StateClosed {
		t.Errorf("server state %v", serverConn.State())
	}
}

func TestTCPTimeWaitReclaimed(t *testing.T) {
	n, a, b := twoHosts(t)
	if _, err := b.ListenTCP(80, func(c *Conn) {
		c.OnPeerClose = func() { c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnect = func() { c.Close() }
	if err := n.kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateTimeWait {
		t.Fatalf("state before reclaim = %v, want TIME-WAIT", c.State())
	}
	if len(a.conns) != 1 {
		t.Fatalf("conns = %d, want 1 (TIME-WAIT held)", len(a.conns))
	}
	if err := n.kernel.RunUntil(100*time.Millisecond + 2*timeWaitDuration); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed {
		t.Errorf("state after reclaim = %v", c.State())
	}
	if len(a.conns) != 0 {
		t.Errorf("conns = %d after TIME-WAIT reclaim", len(a.conns))
	}
}

func TestTCPOutOfOrderReassembly(t *testing.T) {
	// Inject segments directly out of order; the receiver must buffer
	// and deliver in order.
	n, a, b := twoHosts(t)
	_ = n
	var serverConn *Conn
	var got bytes.Buffer
	if _, err := b.ListenTCP(80, func(c *Conn) {
		serverConn = c
		c.OnData = func(p []byte) { got.Write(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if serverConn == nil {
		t.Fatal("no server conn")
	}

	// Feed the server segments 2,3,1 by hand.
	base := serverConn.rcvNxt
	seg := func(off uint32, payload string) *packet.TCPSegment {
		return &packet.TCPSegment{
			SrcPort: c.LocalPort(), DstPort: 80,
			Seq: base + off, Ack: 0, Flags: packet.FlagACK,
			Window: 65535, Payload: []byte(payload),
		}
	}
	serverConn.input(seg(3, "DEF"))
	serverConn.input(seg(6, "GHI"))
	if got.Len() != 0 {
		t.Fatalf("out-of-order data delivered early: %q", got.String())
	}
	serverConn.input(seg(0, "ABC"))
	if got.String() != "ABCDEFGHI" {
		t.Errorf("reassembled = %q, want ABCDEFGHI", got.String())
	}
	if serverConn.Stats().DupAcksSent != 2 {
		t.Errorf("DupAcksSent = %d, want 2", serverConn.Stats().DupAcksSent)
	}
}

func TestTCPDuplicateDataReacked(t *testing.T) {
	n, a, b := twoHosts(t)
	var serverConn *Conn
	received := 0
	if _, err := b.ListenTCP(80, func(c *Conn) {
		serverConn = c
		c.OnData = func(p []byte) { received += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	base := serverConn.rcvNxt
	s := &packet.TCPSegment{
		SrcPort: c.LocalPort(), DstPort: 80,
		Seq: base, Flags: packet.FlagACK, Window: 65535, Payload: []byte("dup"),
	}
	serverConn.input(s)
	serverConn.input(s) // exact duplicate: must be re-acked, not re-delivered
	if received != 3 {
		t.Errorf("received %d bytes, want 3 (no duplicate delivery)", received)
	}
}

func TestTCPThroughputThroughFilteringCard(t *testing.T) {
	// End-to-end: a deep rule-set on an EFW card caps TCP goodput near
	// the card's calibrated service rate.
	k := newNet(t)
	a := k.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	b := k.addHost(t, "b", "10.0.0.2", nic.EFW(), nil)
	rs, err := fw.DepthRuleSet(64, fw.AllowAllRule(), fw.Deny)
	if err != nil {
		t.Fatal(err)
	}
	b.NIC().InstallRuleSet(rs)

	received := 0
	if _, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func(p []byte) { received += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	const window = 2 * time.Second
	fill := func() {
		for c.Buffered() < 128<<10 && k.kernel.Now() < window {
			if err := c.Write(make([]byte, 64<<10)); err != nil {
				return
			}
			sent += 64 << 10
		}
	}
	c.OnConnect = fill
	c.OnAcked = func(int) { fill() }
	if err := k.kernel.RunUntil(window); err != nil {
		t.Fatal(err)
	}
	mbps := float64(received) * 8 / window.Seconds() / 1e6
	if mbps < 40 || mbps > 60 {
		t.Errorf("goodput through 64-rule EFW = %.1f Mbps, want ≈50", mbps)
	}
}

func TestVPGTCPEndToEnd(t *testing.T) {
	// TCP through sealing cards: MSS shrinks, data flows, wire is sealed.
	k := newNet(t)
	a := k.addHost(t, "a", "10.0.0.1", nic.ADF(), nil)
	b := k.addHost(t, "b", "10.0.0.2", nic.ADF(), nil)
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), a.IP(), b.IP())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.NIC().InstallGroup(g, a.IP()); err != nil {
		t.Fatal(err)
	}
	if err := b.NIC().InstallGroup(g, b.IP()); err != nil {
		t.Fatal(err)
	}
	prefix := packet.MustPrefix("10.0.0.0/24")
	a.NIC().InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", a.IP(), prefix)...))
	b.NIC().InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", b.IP(), prefix)...))

	const total = 256 << 10
	received := 0
	if _, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func(p []byte) { received += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	if c.MSS() >= packet.MaxPayload-packet.IPv4HeaderLen-packet.TCPHeaderLen {
		t.Errorf("MSS %d not reduced for VPG overhead", c.MSS())
	}
	c.OnConnect = func() {
		if err := c.Write(make([]byte, total)); err != nil {
			t.Error(err)
		}
	}
	if err := k.kernel.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d through VPG", received, total)
	}
	if a.NIC().Stats().Sealed == 0 || b.NIC().Stats().Opened == 0 {
		t.Error("traffic did not transit the VPG")
	}
}

func TestSpoofedInjectionBypassesLocalFirewallOnly(t *testing.T) {
	// InjectDatagram skips the attacker's host firewall but the frame
	// still crosses the victim's defenses.
	nw := newNet(t)
	a := nw.addHost(t, "attacker", "10.0.0.66", nic.Standard(), nil)
	b := nw.addHost(t, "victim", "10.0.0.2", nic.EFW(), nil)
	b.NIC().InstallRuleSet(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Deny, Direction: fw.In, Src: packet.MustPrefix("10.0.0.66/32"), Name: "block-attacker"},
		fw.AllowAllRule(),
	))
	sink, err := b.BindUDP(7000)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sink.OnRecv = func(packet.IP, uint16, []byte) { delivered++ }

	// Own address: denied by the victim's rule 1.
	own := &packet.UDPDatagram{SrcPort: 1, DstPort: 7000, Payload: []byte("x")}
	a.InjectDatagram(packet.NewDatagram(a.IP(), b.IP(), packet.ProtoUDP, 1, own.Marshal(a.IP(), b.IP())))
	// Spoofed as the trusted client: slips past the block.
	spoofIP := packet.MustIP("10.0.0.1")
	sp := &packet.UDPDatagram{SrcPort: 1, DstPort: 7000, Payload: []byte("x")}
	a.InjectDatagram(packet.NewDatagram(spoofIP, b.IP(), packet.ProtoUDP, 2, sp.Marshal(spoofIP, b.IP())))

	if err := nw.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (spoofed packet only)", delivered)
	}
	if b.NIC().Stats().RxDrops[tracing.DropRuleDeny] != 1 {
		t.Errorf("rx rule-deny drops = %d, want 1", b.NIC().Stats().RxDrops[tracing.DropRuleDeny])
	}
}

func TestSYNFloodFillsListenerBacklog(t *testing.T) {
	nw := newNet(t)
	atk := nw.addHost(t, "attacker", "10.0.0.66", nic.Standard(), nil)
	srv := nw.addHost(t, "server", "10.0.0.2", nic.Standard(), nil)
	listener, err := srv.ListenTCP(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	listener.SetBacklog(16)

	// Spoofed SYNs from addresses that do not exist: SYN-ACKs go
	// nowhere, so half-open slots are held until retransmission gives
	// up.
	for i := 0; i < 64; i++ {
		src := packet.IP{192, 0, 2, byte(i + 1)}
		seg := &packet.TCPSegment{SrcPort: 1000 + uint16(i), DstPort: 80, Seq: uint32(i), Flags: packet.FlagSYN, Window: 65535}
		d := packet.NewDatagram(src, srv.IP(), packet.ProtoTCP, uint16(i), seg.Marshal(src, srv.IP()))
		atk.InjectDatagram(d)
	}
	if err := nw.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if listener.HalfOpen() != 16 {
		t.Errorf("half-open = %d, want backlog cap 16", listener.HalfOpen())
	}
	if listener.SYNDrops() != 48 {
		t.Errorf("SYN drops = %d, want 48", listener.SYNDrops())
	}

	// A legitimate client cannot get in while the backlog is full...
	c, err := nw.hosts["attacker"].DialTCP(srv.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	connected := false
	c.OnConnect = func() { connected = true }
	if err := nw.kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if connected {
		t.Error("handshake completed through a full SYN backlog")
	}

	// ...but slots free once the half-open connections give up (the
	// first client abandons its own SYN retransmissions in roughly the
	// same window), and a fresh connection then succeeds.
	if err := nw.kernel.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if listener.HalfOpen() != 0 {
		t.Errorf("half-open = %d after RTO exhaustion", listener.HalfOpen())
	}
	c2, err := nw.hosts["attacker"].DialTCP(srv.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	connected2 := false
	c2.OnConnect = func() { connected2 = true }
	if err := nw.kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !connected2 {
		t.Error("fresh client could not connect after the backlog drained")
	}
}
