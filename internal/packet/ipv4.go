package packet

import (
	"encoding/binary"
	"fmt"
)

// Protocol is an IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the simulator.
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
	// ProtoVPGEncap marks datagrams whose payload is a VPG envelope
	// (an encrypted, authenticated transport segment). 99 is "any
	// private encryption scheme" in the IANA registry.
	ProtoVPGEncap Protocol = 99
)

// String returns the conventional lowercase protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// IPv4HeaderLen is the length of an IPv4 header without options. The
// simulator never emits options.
const IPv4HeaderLen = 20

// DefaultTTL is the initial time-to-live of packets built by hosts.
const DefaultTTL = 64

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen int
	ID       uint16
	DontFrag bool
	// MoreFrags and FragOffset carry the fragmentation state; FragOffset
	// is in bytes and must be a multiple of 8.
	MoreFrags  bool
	FragOffset int
	TTL        uint8
	Protocol   Protocol
	Src        IP
	Dst        IP
}

// IsFragment reports whether the header describes a fragment (first or
// later) of a larger datagram.
func (h *IPv4Header) IsFragment() bool { return h.MoreFrags || h.FragOffset > 0 }

// MarshalTo appends the encoded header (with a correct checksum) to b
// and returns the extended slice.
func (h *IPv4Header) MarshalTo(b []byte) []byte {
	b, off := grow(b, IPv4HeaderLen)
	p := b[off:]
	p[0] = 0x45 // version 4, IHL 5
	p[1] = h.TOS
	binary.BigEndian.PutUint16(p[2:4], uint16(h.TotalLen))
	binary.BigEndian.PutUint16(p[4:6], h.ID)
	flagsOff := uint16(h.FragOffset / 8)
	if h.DontFrag {
		flagsOff |= 0x4000
	}
	if h.MoreFrags {
		flagsOff |= 0x2000
	}
	binary.BigEndian.PutUint16(p[6:8], flagsOff)
	p[8] = h.TTL
	p[9] = uint8(h.Protocol)
	copy(p[12:16], h.Src[:])
	copy(p[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(p[10:12], Checksum(p[:IPv4HeaderLen]))
	return b
}

// ParseIPv4Header parses and validates an IPv4 header, returning the
// header and the number of header bytes consumed. It allocates only on
// error.
//
//barbican:noalloc
func ParseIPv4Header(b []byte) (IPv4Header, int, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, 0, fmt.Errorf("packet: IPv4 header too short (%d bytes)", len(b)) //barbican:allow alloc -- error path
	}
	if b[0]>>4 != 4 {
		return h, 0, fmt.Errorf("packet: not IPv4 (version %d)", b[0]>>4) //barbican:allow alloc -- error path
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return h, 0, fmt.Errorf("packet: bad IHL %d", ihl) //barbican:allow alloc -- error path
	}
	if Checksum(b[:ihl]) != 0 {
		return h, 0, fmt.Errorf("packet: IPv4 header checksum mismatch")
	}
	flagsOff := binary.BigEndian.Uint16(b[6:8])
	h = IPv4Header{
		TOS:        b[1],
		TotalLen:   int(binary.BigEndian.Uint16(b[2:4])),
		ID:         binary.BigEndian.Uint16(b[4:6]),
		DontFrag:   flagsOff&0x4000 != 0,
		MoreFrags:  flagsOff&0x2000 != 0,
		FragOffset: int(flagsOff&0x1fff) * 8,
		TTL:        b[8],
		Protocol:   Protocol(b[9]),
	}
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if h.TotalLen < ihl || h.TotalLen > len(b) {
		return IPv4Header{}, 0, fmt.Errorf("packet: bad total length %d (buffer %d)", h.TotalLen, len(b)) //barbican:allow alloc -- error path
	}
	return h, ihl, nil
}

// Datagram is a parsed IPv4 datagram: header plus transport payload.
type Datagram struct {
	Header  IPv4Header
	Payload []byte
}

// MarshalTo appends the encoded datagram to b (fixing TotalLen to match
// the payload) and returns the extended slice.
func (d *Datagram) MarshalTo(b []byte) []byte {
	h := d.Header
	h.TotalLen = IPv4HeaderLen + len(d.Payload)
	b = h.MarshalTo(b)
	b, off := grow(b, len(d.Payload))
	copy(b[off:], d.Payload)
	return b
}

// UnmarshalDatagram parses an IPv4 datagram. The payload aliases b and is
// truncated to the header's TotalLen; a caller that keeps it past b's
// lifetime copies it. It allocates only on error.
//
//barbican:noalloc
func UnmarshalDatagram(b []byte) (Datagram, error) {
	h, ihl, err := ParseIPv4Header(b)
	if err != nil {
		return Datagram{}, err
	}
	return Datagram{Header: h, Payload: b[ihl:h.TotalLen]}, nil
}

// NewDatagram builds a datagram with the simulator's defaults (TTL 64,
// don't-fragment) around a transport payload.
func NewDatagram(src, dst IP, proto Protocol, id uint16, payload []byte) *Datagram {
	return &Datagram{
		Header: IPv4Header{
			TotalLen: IPv4HeaderLen + len(payload),
			ID:       id,
			DontFrag: true,
			TTL:      DefaultTTL,
			Protocol: proto,
			Src:      src,
			Dst:      dst,
		},
		Payload: payload,
	}
}
