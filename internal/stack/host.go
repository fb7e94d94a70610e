// Package stack implements the simulated hosts' network stack: IP
// send/receive over a NIC, UDP sockets, a TCP state machine (handshake,
// sliding-window data transfer, retransmission, teardown, resets), and
// ICMP behaviour (echo, port unreachable).
//
// The stack is deliberately faithful where the paper's experiments depend
// on it: allowed flood packets reaching the host elicit responses (TCP
// RSTs, ICMP port unreachables) that transit the firewall card *outbound*
// and double its load — the mechanism behind the paper's finding that
// denying flood packets doubles the required flood rate.
package stack

import (
	"fmt"
	"time"

	"barbican/internal/fw"
	"barbican/internal/hostfw"
	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// Resolver maps an IP address to the MAC address of its host. The
// simulated network is a single switched segment with a static neighbor
// table, so resolution is a lookup: there is no neighbor discovery on
// the wire.
type Resolver func(packet.IP) (packet.MAC, bool)

// Stats counts host-level stack activity.
type Stats struct {
	RxDatagrams   uint64
	RxWrongDst    uint64
	RxMalformed   uint64
	RxFiltered    uint64 // dropped by the host firewall
	RxNoListener  uint64 // TCP to a closed port (RST sent)
	RxNoSocket    uint64 // UDP to a closed port (ICMP sent)
	RxFragments   uint64
	RxReassembled uint64
	TxDatagrams   uint64
	TxFiltered    uint64
	TxNoRoute     uint64
	TxNICRefused  uint64
	RSTsSent      uint64
	UnreachSent   uint64
	EchoReplies   uint64
	ICMPReceived  uint64
}

// Config configures a host.
type Config struct {
	// Name labels the host in logs.
	Name string
	// IP is the host address.
	IP packet.IP
	// NIC is the host's (possibly filtering) network card.
	NIC *nic.NIC
	// Resolve maps destination IPs to MACs. Required.
	Resolve Resolver
	// Firewall optionally filters traffic in the host (the iptables
	// baseline). Nil means no host filtering.
	Firewall *hostfw.Firewall
	// RespondToFloods controls whether the host emits RST/ICMP responses
	// to packets for closed ports. True matches real stacks (and the
	// paper's testbed); the ablation benchmarks disable it.
	RespondToFloods bool
}

type connKey struct {
	remote     packet.IP
	remotePort uint16
	localPort  uint16
}

// Host is a simulated end host.
type Host struct {
	kernel  *sim.Kernel
	name    string
	ip      packet.IP
	card    *nic.NIC
	fwall   *hostfw.Firewall
	resolve Resolver
	respond bool

	udpSocks  map[uint16]*UDPSocket
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn

	ipID      uint16
	ephemeral uint16
	reasm     *packet.Reassembler

	// txScratch and txDatagram are reused across sends: the NIC
	// consumes every transmitted datagram before Send returns.
	txScratch  []byte
	txDatagram packet.Datagram

	// OnICMP, when set, observes ICMP messages addressed to this host
	// (other than echo requests, which are answered automatically).
	// msg.Payload is valid only until OnICMP returns.
	OnICMP func(src packet.IP, msg packet.ICMPMessage)

	// tracer records lifecycle events for frames carrying a sampled
	// trace ID; rxTraceID holds the ID of the datagram currently in
	// receive() so the per-protocol handlers (which only see the
	// datagram) can finish the trace. Single simulation goroutine, so
	// the transient field is race-free.
	tracer    *tracing.Tracer
	rxTraceID uint64

	stats Stats
}

// NewHost creates a host bound to its NIC.
func NewHost(k *sim.Kernel, cfg Config) (*Host, error) {
	if cfg.NIC == nil {
		return nil, fmt.Errorf("stack: host %q has no NIC", cfg.Name)
	}
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("stack: host %q has no resolver", cfg.Name)
	}
	h := &Host{
		kernel:    k,
		name:      cfg.Name,
		ip:        cfg.IP,
		card:      cfg.NIC,
		fwall:     cfg.Firewall,
		resolve:   cfg.Resolve,
		respond:   cfg.RespondToFloods,
		udpSocks:  make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		ephemeral: 32768,
		reasm:     packet.NewReassembler(0, 0),
	}
	cfg.NIC.SetDeliver(h.receive)
	return h, nil
}

// Name returns the host's label.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() packet.IP { return h.ip }

// NIC returns the host's card.
func (h *Host) NIC() *nic.NIC { return h.card }

// Firewall returns the host firewall (nil if none).
func (h *Host) Firewall() *hostfw.Firewall { return h.fwall }

// Stats returns a snapshot of the stack counters.
func (h *Host) Stats() Stats { return h.stats }

// SetTracer attaches (or with nil detaches) a packet-lifecycle
// tracer: sampled datagrams record stack dispatch and app delivery.
func (h *Host) SetTracer(tr *tracing.Tracer) { h.tracer = tr }

// traceFinish terminates the trace of the datagram currently being
// received, if any, with an app-level disposition note.
func (h *Host) traceFinish(note string) {
	if h.tracer != nil && h.rxTraceID != 0 {
		h.tracer.Finish(h.rxTraceID, tracing.StageApp, note)
	}
}

// traceDrop terminates the current datagram's trace as a stack-level
// drop.
func (h *Host) traceDrop(st tracing.Stage, r tracing.DropReason) {
	if h.tracer != nil && h.rxTraceID != 0 {
		h.tracer.Drop(h.rxTraceID, st, r)
	}
}

// Kernel returns the simulation kernel the host runs on.
func (h *Host) Kernel() *sim.Kernel { return h.kernel }

// MSS returns the TCP maximum segment size on this host's path,
// accounting for VPG sealing overhead on its card.
func (h *Host) MSS() int {
	return packet.MaxPayload - packet.IPv4HeaderLen - packet.TCPHeaderLen - h.card.SealOverhead()
}

// receive is the NIC's delivery callback. The decoded datagram and its
// transport message live on the stack and alias f's bytes; nothing on
// the path keeps them (the reassembler and the TCP out-of-order queue
// copy what they hold).
//
//barbican:noalloc
func (h *Host) receive(f *packet.Frame) {
	if h.tracer != nil {
		h.rxTraceID = f.TraceID
	}
	d, err := packet.UnmarshalDatagram(f.Payload)
	if err != nil {
		h.stats.RxMalformed++
		h.traceDrop(tracing.StageStack, tracing.DropMalformed)
		return
	}
	if d.Header.Dst != h.ip {
		h.stats.RxWrongDst++
		h.traceFinish("stack: wrong destination")
		return
	}
	if h.fwall != nil {
		s, err := packet.SummarizeDatagram(&d)
		if err != nil {
			h.stats.RxMalformed++
			h.traceDrop(tracing.StageStack, tracing.DropMalformed)
			return
		}
		if r := h.fwall.Filter(s, fw.In); r != tracing.DropNone {
			h.stats.RxFiltered++
			h.traceDrop(tracing.StageStack, r)
			return
		}
	}
	if d.Header.IsFragment() {
		h.stats.RxFragments++
		whole := h.reasm.Add(&d)
		if whole == nil {
			if h.tracer != nil && h.rxTraceID != 0 {
				h.tracer.Point(h.rxTraceID, tracing.StageStack, "fragment held for reassembly")
			}
			return // incomplete; the reassembler holds (or dropped) it
		}
		h.stats.RxReassembled++
		if h.tracer != nil && h.rxTraceID != 0 {
			h.tracer.Point(h.rxTraceID, tracing.StageStack, "reassembled")
		}
		d = *whole
	}
	h.stats.RxDatagrams++
	switch d.Header.Protocol {
	case packet.ProtoUDP:
		h.receiveUDP(&d)
	case packet.ProtoTCP:
		h.receiveTCP(&d)
	case packet.ProtoICMP:
		h.receiveICMP(&d)
	default:
		// Unknown protocols are dropped silently, as Linux does without
		// a raw socket listener.
	}
}

// receiveUDP demultiplexes a UDP datagram to its socket.
//
//barbican:noalloc
func (h *Host) receiveUDP(d *packet.Datagram) {
	u, err := packet.UnmarshalUDPDatagram(d.Header.Src, d.Header.Dst, d.Payload)
	if err != nil {
		h.stats.RxMalformed++
		h.traceDrop(tracing.StageStack, tracing.DropMalformed)
		return
	}
	sock, ok := h.udpSocks[u.DstPort]
	if !ok {
		h.stats.RxNoSocket++
		if h.respond {
			h.traceFinish("udp: closed port, icmp port-unreachable sent")
			h.sendPortUnreachable(d.Header.Src)
		} else {
			h.traceFinish("udp: closed port, silently dropped")
		}
		return
	}
	h.traceFinish("udp: delivered to socket")
	sock.deliver(d.Header.Src, u.SrcPort, u.Payload)
}

// receiveTCP demultiplexes a TCP segment to its connection or listener,
// or answers it with a reset.
//
//barbican:noalloc
func (h *Host) receiveTCP(d *packet.Datagram) {
	seg, err := packet.UnmarshalTCPSegment(d.Header.Src, d.Header.Dst, d.Payload)
	if err != nil {
		h.stats.RxMalformed++
		h.traceDrop(tracing.StageStack, tracing.DropMalformed)
		return
	}
	key := connKey{remote: d.Header.Src, remotePort: seg.SrcPort, localPort: seg.DstPort}
	if c, ok := h.conns[key]; ok {
		h.traceFinish("tcp: delivered to connection")
		c.input(&seg)
		return
	}
	if l, ok := h.listeners[seg.DstPort]; ok && seg.Flags.Has(packet.FlagSYN) && !seg.Flags.Has(packet.FlagACK) {
		h.traceFinish("tcp: syn accepted by listener")
		l.accept(d.Header.Src, &seg)
		return
	}
	h.stats.RxNoListener++
	if seg.Flags.Has(packet.FlagRST) {
		h.traceFinish("tcp: orphan rst ignored")
		return // never respond to a RST with a RST
	}
	if h.respond {
		h.traceFinish("tcp: no listener, rst sent")
		h.sendRSTFor(d.Header.Src, &seg)
	} else {
		h.traceFinish("tcp: no listener, silently dropped")
	}
}

// receiveICMP answers echo requests and hands other messages to OnICMP.
//
//barbican:noalloc
func (h *Host) receiveICMP(d *packet.Datagram) {
	m, err := packet.UnmarshalICMPMessage(d.Payload)
	if err != nil {
		h.stats.RxMalformed++
		h.traceDrop(tracing.StageStack, tracing.DropMalformed)
		return
	}
	if m.Type == packet.ICMPEchoRequest {
		h.stats.EchoReplies++
		h.traceFinish("icmp: echo request, reply sent")
		reply := &packet.ICMPMessage{Type: packet.ICMPEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
		h.txScratch = reply.MarshalTo(h.txScratch[:0])
		h.send(d.Header.Src, packet.ProtoICMP, h.txScratch)
		return
	}
	h.stats.ICMPReceived++
	h.traceFinish("icmp: delivered")
	if h.OnICMP != nil {
		h.OnICMP(d.Header.Src, m)
	}
}

// sendRSTFor answers an orphan TCP segment with a reset, per RFC 793.
func (h *Host) sendRSTFor(src packet.IP, seg *packet.TCPSegment) {
	h.stats.RSTsSent++
	rst := &packet.TCPSegment{SrcPort: seg.DstPort, DstPort: seg.SrcPort}
	if seg.Flags.Has(packet.FlagACK) {
		rst.Flags = packet.FlagRST
		rst.Seq = seg.Ack
	} else {
		rst.Flags = packet.FlagRST | packet.FlagACK
		ack := seg.Seq + uint32(len(seg.Payload))
		if seg.Flags.Has(packet.FlagSYN) {
			ack++
		}
		rst.Ack = ack
	}
	h.txScratch = rst.MarshalTo(h.ip, src, h.txScratch[:0])
	h.send(src, packet.ProtoTCP, h.txScratch)
}

func (h *Host) sendPortUnreachable(dst packet.IP) {
	h.stats.UnreachSent++
	m := &packet.ICMPMessage{Type: packet.ICMPDestUnreach, Code: packet.ICMPCodePortUnreach}
	h.txScratch = m.MarshalTo(h.txScratch[:0])
	h.send(dst, packet.ProtoICMP, h.txScratch)
}

// send builds and transmits one IP datagram. It reports whether the
// datagram made it onto the wire.
//
//barbican:noalloc
func (h *Host) send(dst packet.IP, proto packet.Protocol, transport []byte) bool {
	h.ipID++
	h.txDatagram = *packet.NewDatagram(h.ip, dst, proto, h.ipID, transport)
	d := &h.txDatagram
	if h.fwall != nil {
		s, err := packet.SummarizeDatagram(d)
		if err == nil && h.fwall.Filter(s, fw.Out) != tracing.DropNone {
			h.stats.TxFiltered++
			return false
		}
	}
	mac, ok := h.resolve(dst)
	if !ok {
		h.stats.TxNoRoute++
		return false
	}
	if !h.card.Send(d, mac) {
		h.stats.TxNICRefused++
		return false
	}
	h.stats.TxDatagrams++
	return true
}

// InjectDatagram transmits a raw datagram as attacker tooling would via a
// raw socket: the source address may be spoofed and the host firewall is
// bypassed. The destination MAC is resolved from the datagram's
// destination address; delivery still traverses this host's NIC egress
// path (its firewall card, if any, still sees the packet).
func (h *Host) InjectDatagram(d *packet.Datagram) bool {
	mac, ok := h.resolve(d.Header.Dst)
	if !ok {
		h.stats.TxNoRoute++
		return false
	}
	if !h.card.Send(d, mac) {
		h.stats.TxNICRefused++
		return false
	}
	h.stats.TxDatagrams++
	return true
}

// Ping sends an ICMP echo request.
func (h *Host) Ping(dst packet.IP, id, seq uint16) bool {
	m := &packet.ICMPMessage{Type: packet.ICMPEchoRequest, ID: id, Seq: seq}
	h.txScratch = m.MarshalTo(h.txScratch[:0])
	return h.send(dst, packet.ProtoICMP, h.txScratch)
}

// allocEphemeral returns the next free ephemeral port for the given test.
func (h *Host) allocEphemeral(inUse func(uint16) bool) (uint16, error) {
	for i := 0; i < 28232; i++ {
		p := h.ephemeral
		h.ephemeral++
		if h.ephemeral == 0 {
			h.ephemeral = 32768
		}
		if !inUse(p) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("stack: host %q is out of ephemeral ports", h.name)
}

// timeWaitDuration is the TIME-WAIT linger before a connection's state is
// reclaimed (2×MSL collapsed for simulation practicality).
const timeWaitDuration = 500 * time.Millisecond
