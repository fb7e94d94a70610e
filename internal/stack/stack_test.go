package stack

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/hostfw"
	"barbican/internal/link"
	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// net is a small test network: hosts on one switch with static address
// resolution.
type net struct {
	kernel *sim.Kernel
	sw     *link.Switch
	macs   map[packet.IP]packet.MAC
	hosts  map[string]*Host
}

func newNet(t testing.TB) *net {
	t.Helper()
	k := sim.NewKernel()
	return &net{
		kernel: k,
		sw:     link.NewSwitch(k, link.SwitchConfig{Link: link.Config{QueueFrames: 4096}}),
		macs:   make(map[packet.IP]packet.MAC),
		hosts:  make(map[string]*Host),
	}
}

func (n *net) addHost(t testing.TB, name string, ip string, prof nic.Profile, fwall *hostfw.Firewall) *Host {
	t.Helper()
	addr := packet.MustIP(ip)
	mac := packet.MAC{2, 0, 0, 0, 0, byte(len(n.macs) + 1)}
	n.macs[addr] = mac
	card := nic.New(n.kernel, mac, prof, n.sw.NewPort())
	h, err := NewHost(n.kernel, Config{
		Name: name, IP: addr, NIC: card,
		Resolve: func(ip packet.IP) (packet.MAC, bool) {
			m, ok := n.macs[ip]
			return m, ok
		},
		Firewall:        fwall,
		RespondToFloods: true,
	})
	if err != nil {
		t.Fatalf("NewHost(%s): %v", name, err)
	}
	n.hosts[name] = h
	return h
}

func twoHosts(t testing.TB) (*net, *Host, *Host) {
	n := newNet(t)
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard(), nil)
	return n, a, b
}

// TestNewHostRejectsIncompleteConfig: a host needs a card and a
// resolver; without either NewHost fails instead of building a host
// that cannot send.
func TestNewHostRejectsIncompleteConfig(t *testing.T) {
	n := newNet(t)
	card := nic.New(n.kernel, packet.MAC{2, 0, 0, 0, 0, 9}, nic.Standard(), n.sw.NewPort())
	resolve := func(packet.IP) (packet.MAC, bool) { return packet.MAC{}, false }
	for name, cfg := range map[string]Config{
		"no NIC":      {Name: "h", IP: packet.MustIP("10.0.0.9"), Resolve: resolve},
		"no resolver": {Name: "h", IP: packet.MustIP("10.0.0.9"), NIC: card},
	} {
		t.Run(name, func(t *testing.T) {
			h, err := NewHost(n.kernel, cfg)
			if err == nil || !strings.Contains(err.Error(), name) || h != nil {
				t.Fatalf("NewHost = %v, %v; want an error naming %q", h, err, name)
			}
		})
	}
}

func TestUDPDelivery(t *testing.T) {
	n, a, b := twoHosts(t)
	srv, err := b.BindUDP(5001)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var gotSrc packet.IP
	srv.OnRecv = func(src packet.IP, srcPort uint16, payload []byte) {
		gotSrc = src
		got = append([]byte(nil), payload...)
	}
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cli.SendTo(b.IP(), 5001, []byte("hello")) {
		t.Fatal("SendTo refused")
	}
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" || gotSrc != a.IP() {
		t.Errorf("got %q from %v", got, gotSrc)
	}
	if d, by := srv.Received(); d != 1 || by != 5 {
		t.Errorf("Received = %d, %d", d, by)
	}
}

// udpFrame is the wire frame of a UDP datagram from a to port on b, as
// b's card delivers it.
func udpFrame(a, b *Host, port uint16, payload []byte) *packet.Frame {
	u := &packet.UDPDatagram{SrcPort: 40000, DstPort: port, Payload: payload}
	d := packet.NewDatagram(a.IP(), b.IP(), packet.ProtoUDP, 1, u.MarshalTo(a.IP(), b.IP(), nil))
	return &packet.Frame{Dst: b.card.MAC(), Src: a.card.MAC(), Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}
}

// Receiving a UDP datagram for a bound socket decodes the datagram and
// its UDP header on the stack: no allocation per frame.
func TestReceiveUDPDoesNotAllocate(t *testing.T) {
	_, a, b := twoHosts(t)
	srv, err := b.BindUDP(5001)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	srv.OnRecv = func(_ packet.IP, _ uint16, payload []byte) { got += len(payload) }
	f := udpFrame(a, b, 5001, make([]byte, 64))
	if allocs := testing.AllocsPerRun(100, func() { b.receive(f) }); allocs != 0 {
		t.Errorf("Host.receive: %v allocs per UDP datagram, want 0", allocs)
	}
	if got == 0 {
		t.Error("socket received nothing")
	}
}

func TestUDPClosedPortElicitsICMP(t *testing.T) {
	n, a, b := twoHosts(t)
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	var icmp *packet.ICMPMessage
	a.OnICMP = func(src packet.IP, m packet.ICMPMessage) { icmp = &m }
	cli.SendTo(b.IP(), 9999, []byte("anyone there?"))
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().UnreachSent != 1 {
		t.Error("no ICMP unreachable sent for closed port")
	}
	if icmp == nil || icmp.Type != packet.ICMPDestUnreach || icmp.Code != packet.ICMPCodePortUnreach {
		t.Errorf("client got %+v, want port unreachable", icmp)
	}
}

func TestFloodResponseSuppression(t *testing.T) {
	// With RespondToFloods disabled, closed ports stay silent (used by
	// the ablation benchmarks).
	n := newNet(t)
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	bAddr := packet.MustIP("10.0.0.2")
	mac := packet.MAC{2, 0, 0, 0, 0, 42}
	n.macs[bAddr] = mac
	card := nic.New(n.kernel, mac, nic.Standard(), n.sw.NewPort())
	b, err := NewHost(n.kernel, Config{
		Name: "b", IP: bAddr, NIC: card,
		Resolve: func(ip packet.IP) (packet.MAC, bool) { m, ok := n.macs[ip]; return m, ok },
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(b.IP(), 9999, []byte("x"))
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().UnreachSent != 0 {
		t.Error("silent host sent ICMP")
	}
}

func TestPingEcho(t *testing.T) {
	n, a, b := twoHosts(t)
	var reply *packet.ICMPMessage
	a.OnICMP = func(src packet.IP, m packet.ICMPMessage) {
		if m.Type == packet.ICMPEchoReply {
			reply = &m
		}
	}
	a.Ping(b.IP(), 7, 1)
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if reply == nil || reply.ID != 7 || reply.Seq != 1 {
		t.Errorf("echo reply = %+v", reply)
	}
	if b.Stats().EchoReplies != 1 {
		t.Error("server did not count echo reply")
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	n, a, b := twoHosts(t)
	var serverGot bytes.Buffer
	_, err := b.ListenTCP(80, func(c *Conn) {
		c.OnData = func(p []byte) { serverGot.Write(p) }
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	connected := false
	c.OnConnect = func() {
		connected = true
		if err := c.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
			t.Errorf("Write: %v", err)
		}
	}
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !connected {
		t.Fatal("handshake never completed")
	}
	if serverGot.String() != "GET / HTTP/1.0\r\n\r\n" {
		t.Errorf("server got %q", serverGot.String())
	}
	if c.State() != StateEstablished {
		t.Errorf("client state %v, want ESTABLISHED", c.State())
	}
}

func TestTCPBulkTransfer(t *testing.T) {
	n, a, b := twoHosts(t)
	const total = 1 << 20 // 1 MiB
	received := 0
	_, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func(p []byte) { received += len(p) }
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	fill := func() {
		for c.Buffered() < 256<<10 && sent < total {
			chunk := 64 << 10
			if total-sent < chunk {
				chunk = total - sent
			}
			if err := c.Write(make([]byte, chunk)); err != nil {
				t.Fatalf("Write: %v", err)
			}
			sent += chunk
		}
	}
	c.OnConnect = fill
	c.OnAcked = func(int) { fill() }
	if err := n.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
	if c.Stats().Retransmits != 0 {
		t.Errorf("unexpected retransmits on a clean network: %d", c.Stats().Retransmits)
	}
	// 1 MiB over 100 Mbps is ≈90 ms; it must have taken at least that.
	if n.kernel.Now() < 80*time.Millisecond {
		t.Errorf("transfer finished impossibly fast: %v", n.kernel.Now())
	}
}

func TestTCPGracefulClose(t *testing.T) {
	n, a, b := twoHosts(t)
	var serverConn *Conn
	serverPeerClosed := false
	_, err := b.ListenTCP(80, func(c *Conn) {
		serverConn = c
		c.OnPeerClose = func() {
			serverPeerClosed = true
			c.Close() // close our side too
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	clientClosed := false
	c.OnClose = func() { clientClosed = true }
	c.OnConnect = func() { c.Close() }
	if err := n.kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !serverPeerClosed {
		t.Error("server never saw client FIN")
	}
	if !clientClosed {
		t.Error("client OnClose never fired")
	}
	if serverConn.State() != StateClosed {
		t.Errorf("server state %v, want CLOSED", serverConn.State())
	}
	if c.State() != StateClosed && c.State() != StateTimeWait {
		t.Errorf("client state %v, want TIME-WAIT or CLOSED", c.State())
	}
}

func TestTCPConnectToClosedPortResets(t *testing.T) {
	n, a, b := twoHosts(t)
	c, err := a.DialTCP(b.IP(), 81)
	if err != nil {
		t.Fatal(err)
	}
	reset := false
	c.OnReset = func() { reset = true }
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !reset {
		t.Error("connection to closed port was not reset")
	}
	if b.Stats().RSTsSent != 1 {
		t.Errorf("RSTsSent = %d, want 1", b.Stats().RSTsSent)
	}
	if c.State() != StateClosed {
		t.Errorf("state %v, want CLOSED", c.State())
	}
}

func TestTCPRetransmissionRecoversLoss(t *testing.T) {
	// Congest the path with a tiny link queue so some segments drop,
	// then verify the transfer still completes.
	k := sim.NewKernel()
	sw := link.NewSwitch(k, link.SwitchConfig{Link: link.Config{QueueFrames: 3}})
	macs := map[packet.IP]packet.MAC{}
	resolve := func(ip packet.IP) (packet.MAC, bool) { m, ok := macs[ip]; return m, ok }
	mk := func(name, ip string, last byte) *Host {
		addr := packet.MustIP(ip)
		mac := packet.MAC{2, 0, 0, 0, 0, last}
		macs[addr] = mac
		card := nic.New(k, mac, nic.Standard(), sw.NewPort())
		h, err := NewHost(k, Config{Name: name, IP: addr, NIC: card, Resolve: resolve, RespondToFloods: true})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a := mk("a", "10.0.0.1", 1)
	b := mk("b", "10.0.0.2", 2)

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
	c.OnConnect = func() {
		// Dump the whole payload at once: with a 3-frame switch queue
		// this overruns and drops segments.
		if err := c.Write(make([]byte, total)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d after loss", received, total)
	}
	if c.Stats().Retransmits == 0 {
		t.Error("no retransmissions despite forced loss")
	}
}

func TestTCPWriteAfterCloseFails(t *testing.T) {
	n, a, b := twoHosts(t)
	if _, err := b.ListenTCP(80, nil); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnect = func() {
		c.Close()
		if err := c.Write([]byte("x")); err == nil {
			t.Error("Write after Close succeeded")
		}
	}
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTCPAbortSendsRST(t *testing.T) {
	n, a, b := twoHosts(t)
	var serverConn *Conn
	serverReset := false
	if _, err := b.ListenTCP(80, func(c *Conn) {
		serverConn = c
		c.OnReset = func() { serverReset = true }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnect = func() { c.Abort() }
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if serverConn == nil {
		t.Fatal("server never accepted")
	}
	if !serverReset {
		t.Error("peer never saw the RST")
	}
	if c.State() != StateClosed {
		t.Errorf("client state %v", c.State())
	}
}

func TestHostFirewallFiltersInbound(t *testing.T) {
	n := newNet(t)
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	f := hostfw.New(n.kernel, hostfw.IPTables())
	f.Install(fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoUDP, DstPorts: fw.Port(53)},
		fw.Rule{Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoUDP, SrcPorts: fw.Port(53)},
	))
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard(), f)

	srvAllowed, err := b.BindUDP(53)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	srvAllowed.OnRecv = func(packet.IP, uint16, []byte) { got++ }
	srvDenied, err := b.BindUDP(54)
	if err != nil {
		t.Fatal(err)
	}
	srvDenied.OnRecv = func(packet.IP, uint16, []byte) { t.Error("denied port received data") }

	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(b.IP(), 53, []byte("q"))
	cli.SendTo(b.IP(), 54, []byte("q"))
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("allowed port got %d datagrams, want 1", got)
	}
	if b.Stats().RxFiltered != 1 {
		t.Errorf("RxFiltered = %d, want 1", b.Stats().RxFiltered)
	}
}

// TestHostFirewallOverloadTraced: a datagram the host filter's
// saturated processor refuses is traced with the overload reason, not
// as a rule denial, and still counts as filtered.
func TestHostFirewallOverloadTraced(t *testing.T) {
	n := newNet(t)
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	p := hostfw.IPTables()
	p.CapacityUnits, p.MaxQueue = 1000, 2 // 60 ms per datagram
	f := hostfw.New(n.kernel, p)
	f.Install(fw.MustRuleSet(fw.Allow))
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard(), f)
	tr := tracing.New(n.kernel, tracing.Options{SampleEvery: 1})
	for _, h := range []*Host{a, b} {
		h.SetTracer(tr)
		h.NIC().SetTracer(tr)
	}
	if _, err := b.BindUDP(53); err != nil {
		t.Fatal(err)
	}
	cli, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 10
	for i := 0; i < sent; i++ {
		cli.SendTo(b.IP(), 53, []byte("q"))
	}
	if err := n.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	reasons := map[tracing.DropReason]int{}
	for _, pt := range tr.Traces() {
		reasons[pt.Dropped]++
	}
	if reasons[tracing.DropCPUExhausted] != sent-p.MaxQueue || reasons[tracing.DropRuleDeny] != 0 {
		t.Errorf("traced drop reasons = %v, want %d cpu-exhausted", reasons, sent-p.MaxQueue)
	}
	if got := int(b.Stats().RxFiltered); got != sent-p.MaxQueue {
		t.Errorf("RxFiltered = %d, want %d", got, sent-p.MaxQueue)
	}
}

func TestMSSAccountsForVPGOverhead(t *testing.T) {
	n := newNet(t)
	a := n.addHost(t, "a", "10.0.0.1", nic.ADF(), nil)
	base := packet.MaxPayload - packet.IPv4HeaderLen - packet.TCPHeaderLen
	if a.MSS() != base {
		t.Errorf("MSS without groups = %d, want %d", a.MSS(), base)
	}
	// Installing a VPG shrinks the MSS by the seal overhead.
	g := newTestGroup(t, a)
	_ = g
	if want := base - a.NIC().SealOverhead(); a.MSS() != want || a.NIC().SealOverhead() == 0 {
		t.Errorf("MSS with group = %d, want %d", a.MSS(), want)
	}
}

func newTestGroup(t *testing.T, h *Host) *vpg.Group {
	t.Helper()
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), h.IP(), packet.MustIP("10.0.0.99"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.NIC().InstallGroup(g, h.IP()); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEphemeralPortsExhaustion(t *testing.T) {
	n, a, _ := twoHosts(t)
	_ = n
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		s, err := a.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Port()] {
			t.Fatalf("ephemeral port %d reused", s.Port())
		}
		seen[s.Port()] = true
	}
}

func TestBindConflicts(t *testing.T) {
	_, a, _ := twoHosts(t)
	if _, err := a.BindUDP(53); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BindUDP(53); err == nil {
		t.Error("double UDP bind succeeded")
	}
	if _, err := a.ListenTCP(80, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ListenTCP(80, nil); err == nil {
		t.Error("double TCP bind succeeded")
	}
	if _, err := a.ListenTCP(0, nil); err == nil {
		t.Error("TCP listen on port 0 succeeded")
	}
}
