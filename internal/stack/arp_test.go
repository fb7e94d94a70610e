package stack

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// arpNet builds hosts that resolve neighbors with ARP (no static table).
type arpNet struct {
	kernel *sim.Kernel
	sw     *link.Switch
}

func newARPNet() *arpNet {
	k := sim.NewKernel()
	return &arpNet{
		kernel: k,
		sw:     link.NewSwitch(k, link.SwitchConfig{Link: link.Config{QueueFrames: 1024}}),
	}
}

func (n *arpNet) addHost(t *testing.T, name, ip string, prof nic.Profile) *Host {
	t.Helper()
	addr := packet.MustIP(ip)
	mac := packet.MAC{2, 0, 0, 0, 1, addr[3]}
	card := nic.New(n.kernel, mac, prof, n.sw.NewPort())
	h, err := NewHost(n.kernel, Config{
		Name: name, IP: addr, NIC: card,
		RespondToFloods: true,
		// Resolve deliberately nil: ARP mode.
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestARPResolvesAndDelivers(t *testing.T) {
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard())

	sink, err := b.BindUDP(7000)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	sink.OnRecv = func(packet.IP, uint16, []byte) { got++ }
	sock, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sock.SendTo(b.IP(), 7000, []byte("via arp")) {
		t.Fatal("SendTo refused")
	}
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered = %d", got)
	}
	st := a.ARPStats()
	if st.RequestsSent != 1 || st.RepliesHeard != 1 {
		t.Errorf("client ARP stats = %+v", st)
	}
	if b.ARPStats().RepliesSent != 1 {
		t.Errorf("server ARP stats = %+v", b.ARPStats())
	}
}

func TestARPCacheAvoidsRepeatedRequests(t *testing.T) {
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard())
	if _, err := b.BindUDP(7000); err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sock.SendTo(b.IP(), 7000, []byte("x"))
		if err := n.kernel.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := a.ARPStats()
	if st.RequestsSent != 1 {
		t.Errorf("RequestsSent = %d, want 1 (cache must absorb the rest)", st.RequestsSent)
	}
	if st.CacheHits < 9 {
		t.Errorf("CacheHits = %d, want >=9", st.CacheHits)
	}
	// The opportunistic learn from b's perspective: b learned a's
	// binding from the request, so its replies needed no request of its
	// own (ICMP unreachable responses flowed without ARP).
	if b.ARPStats().RequestsSent != 0 {
		t.Errorf("server sent %d ARP requests; request should have taught it the binding",
			b.ARPStats().RequestsSent)
	}
}

func TestARPUnresolvableNeighborDropsAfterRetries(t *testing.T) {
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	sock, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(packet.MustIP("10.0.0.99"), 7000, []byte("anyone?"))
	if err := n.kernel.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := a.ARPStats()
	if st.RequestsSent != arpRetries {
		t.Errorf("RequestsSent = %d, want %d", st.RequestsSent, arpRetries)
	}
	if st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
	if a.Stats().TxNoRoute != 1 {
		t.Errorf("TxNoRoute = %d, want 1 (queued datagram dropped)", a.Stats().TxNoRoute)
	}
}

func TestARPPassesThroughDenyAllCard(t *testing.T) {
	// The EFW filters IP, not ARP: resolution works even under deny-all,
	// though the resolved traffic is then denied.
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	b := n.addHost(t, "b", "10.0.0.2", nic.EFW())
	b.NIC().InstallRuleSet(fw.MustRuleSet(fw.Deny))

	sock, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(b.IP(), 7000, []byte("x"))
	if err := n.kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if a.ARPStats().RepliesHeard != 1 {
		t.Error("ARP did not resolve through a deny-all card")
	}
	if b.NIC().Stats().RxDrops[tracing.DropRuleDeny] != 1 {
		t.Errorf("rx rule-deny drops = %d; the resolved datagram should be denied", b.NIC().Stats().RxDrops[tracing.DropRuleDeny])
	}
}

func TestARPPendingQueueBounded(t *testing.T) {
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	sock, err := a.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sock.SendTo(packet.MustIP("10.0.0.50"), 7000, []byte("x"))
	}
	if a.ARPStats().QueueOverflows != 20-arpPendingLimit {
		t.Errorf("QueueOverflows = %d, want %d", a.ARPStats().QueueOverflows, 20-arpPendingLimit)
	}
}

func TestARPTCPEndToEnd(t *testing.T) {
	n := newARPNet()
	a := n.addHost(t, "a", "10.0.0.1", nic.Standard())
	b := n.addHost(t, "b", "10.0.0.2", nic.Standard())
	received := 0
	if _, err := b.ListenTCP(80, func(c *Conn) {
		c.OnData = func(p []byte) { received += len(p) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnect = func() {
		if err := c.Write([]byte("over arp")); err != nil {
			t.Error(err)
		}
	}
	if err := n.kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != 8 {
		t.Errorf("received = %d bytes", received)
	}
}
