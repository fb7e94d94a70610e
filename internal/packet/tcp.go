package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCPFlags is the TCP control-bit field.
type TCPFlags uint8

// TCP control bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all bits in f are set.
func (f TCPFlags) Has(flags TCPFlags) bool { return f&flags == flags }

// String lists the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	var set []string
	for _, n := range names {
		if f.Has(n.bit) {
			set = append(set, n.name)
		}
	}
	if len(set) == 0 {
		return "none"
	}
	return strings.Join(set, "|")
}

// TCPHeaderLen is the length of a TCP header without options. The
// simulator never emits TCP options.
const TCPHeaderLen = 20

// TCPSegment is a TCP header plus payload.
type TCPSegment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16
	Payload []byte
}

// MarshalTo appends the encoded segment to b and returns the extended
// slice.
func (s *TCPSegment) MarshalTo(src, dst IP, b []byte) []byte {
	b, off := grow(b, TCPHeaderLen+len(s.Payload))
	p := b[off:]
	binary.BigEndian.PutUint16(p[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(p[2:4], s.DstPort)
	binary.BigEndian.PutUint32(p[4:8], s.Seq)
	binary.BigEndian.PutUint32(p[8:12], s.Ack)
	p[12] = (TCPHeaderLen / 4) << 4
	p[13] = uint8(s.Flags)
	binary.BigEndian.PutUint16(p[14:16], s.Window)
	copy(p[TCPHeaderLen:], s.Payload)
	binary.BigEndian.PutUint16(p[16:18], TransportChecksum(src, dst, ProtoTCP, p))
	return b
}

// UnmarshalTCPSegment parses a TCP segment and verifies its checksum
// against the IPv4 pseudo-header. The payload aliases b. It allocates
// only on error.
//
//barbican:noalloc
func UnmarshalTCPSegment(src, dst IP, b []byte) (TCPSegment, error) {
	if len(b) < TCPHeaderLen {
		return TCPSegment{}, fmt.Errorf("packet: TCP segment too short (%d bytes)", len(b)) //barbican:allow alloc -- error path
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(b) {
		return TCPSegment{}, fmt.Errorf("packet: bad TCP data offset %d", dataOff) //barbican:allow alloc -- error path
	}
	if TransportChecksum(src, dst, ProtoTCP, b) != 0 {
		return TCPSegment{}, fmt.Errorf("packet: TCP checksum mismatch")
	}
	return TCPSegment{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   TCPFlags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Payload: b[dataOff:],
	}, nil
}
