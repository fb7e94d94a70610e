package packet

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDPDatagram is a UDP header plus payload.
type UDPDatagram struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// MarshalTo appends the encoded datagram to b and returns the extended
// slice.
func (u *UDPDatagram) MarshalTo(src, dst IP, b []byte) []byte {
	b, off := grow(b, UDPHeaderLen+len(u.Payload))
	p := b[off:]
	binary.BigEndian.PutUint16(p[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(p[2:4], u.DstPort)
	binary.BigEndian.PutUint16(p[4:6], uint16(len(p)))
	copy(p[UDPHeaderLen:], u.Payload)
	sum := TransportChecksum(src, dst, ProtoUDP, p)
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(p[6:8], sum)
	return b
}

// UnmarshalUDPDatagram parses a UDP datagram and verifies its checksum.
// The payload aliases b. It allocates only on error.
//
//barbican:noalloc
func UnmarshalUDPDatagram(src, dst IP, b []byte) (UDPDatagram, error) {
	if len(b) < UDPHeaderLen {
		return UDPDatagram{}, fmt.Errorf("packet: UDP datagram too short (%d bytes)", len(b)) //barbican:allow alloc -- error path
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < UDPHeaderLen || length > len(b) {
		return UDPDatagram{}, fmt.Errorf("packet: bad UDP length %d (buffer %d)", length, len(b)) //barbican:allow alloc -- error path
	}
	b = b[:length]
	if binary.BigEndian.Uint16(b[6:8]) != 0 && TransportChecksum(src, dst, ProtoUDP, b) != 0 {
		return UDPDatagram{}, fmt.Errorf("packet: UDP checksum mismatch")
	}
	return UDPDatagram{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[UDPHeaderLen:],
	}, nil
}
