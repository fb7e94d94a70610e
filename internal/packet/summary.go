package packet

import (
	"encoding/binary"
	"fmt"
)

// Summary is the cheap 5-tuple view of a frame that packet filters match
// on. It is extracted without verifying transport checksums, mirroring
// what a filtering NIC inspects before deciding a packet's fate.
type Summary struct {
	Proto    Protocol
	Src, Dst IP
	SrcPort  uint16 // zero when HasPorts is false
	DstPort  uint16
	HasPorts bool // true for TCP and UDP (first fragments included)
	Flags    TCPFlags
	IPLen    int  // IPv4 total length
	Sealed   bool // frame carried EtherTypeVPG (an encrypted VPG frame)
	// Fragment marks IP fragments. Non-first fragments carry no
	// transport header, so port-based rules cannot match them — the
	// classic stateless-filter blind spot (RFC 1858).
	Fragment bool
}

// String renders the tuple for logs, e.g. "tcp 10.0.0.1:80 > 10.0.0.2:4242".
func (s Summary) String() string {
	if !s.HasPorts {
		return fmt.Sprintf("%v %v > %v", s.Proto, s.Src, s.Dst)
	}
	return fmt.Sprintf("%v %v:%d > %v:%d", s.Proto, s.Src, s.SrcPort, s.Dst, s.DstPort)
}

// Summarize extracts the filterable 5-tuple from a frame carrying IPv4 (or
// a VPG-sealed envelope whose outer header is IPv4-shaped).
func Summarize(f *Frame) (Summary, error) {
	var sealed bool
	switch f.Type {
	case EtherTypeIPv4:
	case EtherTypeVPG:
		sealed = true
	default:
		return Summary{}, fmt.Errorf("packet: cannot summarize ethertype %#04x", uint16(f.Type))
	}
	s, err := SummarizeIPv4(f.Payload)
	s.Sealed = sealed
	return s, err
}

// SummarizeIPv4 extracts the filterable 5-tuple from a raw IPv4 packet.
func SummarizeIPv4(b []byte) (Summary, error) {
	var s Summary
	h, ihl, err := ParseIPv4Header(b)
	if err != nil {
		return s, err
	}
	return summarize(&h, h.TotalLen, b[ihl:h.TotalLen])
}

// SummarizeDatagram extracts the filterable 5-tuple straight from a
// parsed datagram, skipping the marshal/reparse round-trip (and its
// allocations) that Summarize over the wire bytes would cost. The
// result is identical to summarizing the datagram's marshaled form.
func SummarizeDatagram(d *Datagram) (Summary, error) {
	// MarshalTo fixes TotalLen to the option-free header plus payload, so
	// the wire-identical length is reconstructed the same way here.
	return summarize(&d.Header, IPv4HeaderLen+len(d.Payload), d.Payload)
}

func summarize(h *IPv4Header, ipLen int, transport []byte) (Summary, error) {
	s := Summary{
		Proto:    h.Protocol,
		Src:      h.Src,
		Dst:      h.Dst,
		IPLen:    ipLen,
		Fragment: h.IsFragment(),
	}
	if h.FragOffset > 0 {
		// Later fragments: no transport header to inspect.
		return s, nil
	}
	switch h.Protocol {
	case ProtoTCP:
		if len(transport) < TCPHeaderLen {
			return s, fmt.Errorf("packet: truncated TCP header")
		}
		s.HasPorts = true
		s.SrcPort = binary.BigEndian.Uint16(transport[0:2])
		s.DstPort = binary.BigEndian.Uint16(transport[2:4])
		s.Flags = TCPFlags(transport[13])
	case ProtoUDP:
		if len(transport) < UDPHeaderLen {
			return s, fmt.Errorf("packet: truncated UDP header")
		}
		s.HasPorts = true
		s.SrcPort = binary.BigEndian.Uint16(transport[0:2])
		s.DstPort = binary.BigEndian.Uint16(transport[2:4])
	}
	return s, nil
}
