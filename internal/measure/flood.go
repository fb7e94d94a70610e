package measure

import (
	"time"

	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// FloodKind selects the flood traffic type.
type FloodKind int

// Flood kinds.
const (
	// FloodUDP sends UDP datagrams (like hping2 --udp / the thesis'
	// generator). Allowed UDP floods to a closed port elicit ICMP port
	// unreachable responses from the victim.
	FloodUDP FloodKind = iota + 1
	// FloodTCPSYN sends TCP SYNs. Allowed SYN floods elicit RSTs (closed
	// port) or SYN-ACKs (open port) from the victim.
	FloodTCPSYN
	// FloodTCPACK sends bare TCP ACKs that belong to no tracked
	// connection. Against a stateless filter they look like established
	// traffic; a conntrack filter classifies them INVALID and drops
	// each one after a table lookup, without ever creating state — the
	// probe that separates state exhaustion from packet-rate exhaustion.
	FloodTCPACK
)

// floodSrcPort is the flood's source port; TCP floods add the packet
// count modulo 1024 so each packet is a distinct flow.
const floodSrcPort = 4444

// FloodConfig configures a flood.
type FloodConfig struct {
	// Kind of flood; defaults to FloodUDP.
	Kind FloodKind
	// RatePPS is the packet rate. Required.
	RatePPS float64
	// DstPort is the targeted port; zero picks 7 (echo) for UDP and 80
	// for SYN floods.
	DstPort uint16
	// PayloadBytes pads UDP flood packets; zero means minimum-size
	// frames, maximizing packets per second — the attacker's optimal
	// choice against a per-packet bottleneck.
	PayloadBytes int
	// SpoofSources, when non-empty, cycles the source address through
	// the given addresses (the paper notes an attacker can spoof
	// whatever addresses the policy allows deep rule traversal for).
	SpoofSources []packet.IP
	// Fragment splits each flood packet into IP fragments (RFC 1858
	// style evasion): only the first fragment carries ports, so
	// port-based deny rules never see the rest. Requires FloodUDP with
	// PayloadBytes large enough to split (>= 16).
	Fragment bool
}

// Flooder generates a rate-controlled packet flood from an attacker host.
type Flooder struct {
	kernel *sim.Kernel
	host   *stack.Host
	target packet.IP
	cfg    FloodConfig

	running bool
	sent    uint64
	ipID    uint16

	// Scratch state for the build path: the NIC consumes each injected
	// datagram before InjectDatagram returns, so the flood packet is
	// assembled in place, allocation-free, at any rate.
	payload  []byte
	tx       []byte
	scratchD packet.Datagram
	tickFn   func(any)
}

// NewFlooder creates a flood generator on the attacker host aimed at
// target.
func NewFlooder(host *stack.Host, target packet.IP, cfg FloodConfig) *Flooder {
	if cfg.Kind == 0 {
		cfg.Kind = FloodUDP
	}
	if cfg.DstPort == 0 {
		if cfg.Kind == FloodTCPSYN || cfg.Kind == FloodTCPACK {
			cfg.DstPort = 80
		} else {
			cfg.DstPort = 7
		}
	}
	f := &Flooder{
		kernel:  host.Kernel(),
		host:    host,
		target:  target,
		cfg:     cfg,
		payload: make([]byte, cfg.PayloadBytes),
	}
	// A method value, not a closure: the kernel's handler keeps the
	// symbol measure.(*Flooder).tick-fm wherever NewFlooder is inlined.
	f.tickFn = f.tick
	return f
}

// Start begins flooding. The flood runs in virtual time alongside
// whatever measurement the caller drives next.
func (f *Flooder) Start() {
	if f.running || f.cfg.RatePPS <= 0 {
		return
	}
	f.running = true
	f.tick(nil)
}

// Stop halts the flood.
func (f *Flooder) Stop() { f.running = false }

// Sent returns the number of flood packets injected.
func (f *Flooder) Sent() uint64 { return f.sent }

// tick injects one packet and schedules the next. Its argument is the
// kernel's unused event payload.
func (f *Flooder) tick(any) {
	if !f.running {
		return
	}
	f.inject()
	// Deterministic ±5% jitter avoids phase-locking artifacts between
	// the flood, the measurement stream, and the card's service times.
	interval := time.Duration(float64(time.Second) / f.cfg.RatePPS * (0.95 + 0.1*f.kernel.Rand().Float64()))
	if interval <= 0 {
		interval = time.Microsecond
	}
	f.kernel.AfterCall(interval, f.tickFn, nil)
}

// buildDatagram assembles the next flood packet in the flooder's scratch
// buffers, so the build path is allocation-free (BenchmarkFloodMarshal).
//
//barbican:noalloc
func (f *Flooder) buildDatagram() *packet.Datagram {
	src := f.host.IP()
	if n := len(f.cfg.SpoofSources); n > 0 {
		src = f.cfg.SpoofSources[int(f.sent)%n]
	}
	f.ipID++
	tx := f.tx[:0]
	var transport []byte
	var proto packet.Protocol
	switch f.cfg.Kind {
	case FloodTCPSYN:
		seg := packet.TCPSegment{
			SrcPort: floodSrcPort + uint16(f.sent%1024),
			DstPort: f.cfg.DstPort,
			Seq:     uint32(f.sent),
			Flags:   packet.FlagSYN,
			Window:  65535,
		}
		transport = seg.MarshalTo(src, f.target, tx)
		proto = packet.ProtoTCP
	case FloodTCPACK:
		seg := packet.TCPSegment{
			SrcPort: floodSrcPort + uint16(f.sent%1024),
			DstPort: f.cfg.DstPort,
			Seq:     uint32(f.sent),
			Ack:     uint32(f.sent) + 1,
			Flags:   packet.FlagACK,
			Window:  65535,
		}
		transport = seg.MarshalTo(src, f.target, tx)
		proto = packet.ProtoTCP
	default:
		u := packet.UDPDatagram{
			SrcPort: floodSrcPort,
			DstPort: f.cfg.DstPort,
			Payload: f.payload,
		}
		transport = u.MarshalTo(src, f.target, tx)
		proto = packet.ProtoUDP
	}
	f.tx = transport
	f.scratchD = *packet.NewDatagram(src, f.target, proto, f.ipID, transport)
	return &f.scratchD
}

func (f *Flooder) inject() {
	d := f.buildDatagram()
	if f.cfg.Fragment {
		// Split so the first fragment holds just the transport header
		// (ports) and the rest carries the payload unmatchable by
		// port rules.
		d.Header.DontFrag = false
		frags, err := packet.Fragment(d, packet.IPv4HeaderLen+16)
		if err == nil {
			for _, fr := range frags {
				f.host.InjectDatagram(fr)
			}
			f.sent++
			return
		}
		// Fall through to unfragmented on error (payload too small).
	}
	f.host.InjectDatagram(d)
	f.sent++
}
