package packet

import (
	"encoding/binary"
	"fmt"
)

// EtherTypeARP identifies ARP frames.
const EtherTypeARP EtherType = 0x0806

// ARP operation codes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARPLen is the size of an Ethernet/IPv4 ARP message.
const ARPLen = 28

// ARPMessage is an Ethernet/IPv4 ARP request or reply.
type ARPMessage struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IP
	TargetMAC MAC
	TargetIP  IP
}

// MarshalTo appends the message, in the standard wire layout, to b and
// returns the extended slice.
func (m *ARPMessage) MarshalTo(b []byte) []byte {
	b, off := grow(b, ARPLen)
	p := b[off:]
	binary.BigEndian.PutUint16(p[0:2], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(p[2:4], 0x0800) // ptype: IPv4
	p[4] = 6                                   // hlen
	p[5] = 4                                   // plen
	binary.BigEndian.PutUint16(p[6:8], m.Op)
	copy(p[8:14], m.SenderMAC[:])
	copy(p[14:18], m.SenderIP[:])
	copy(p[18:24], m.TargetMAC[:])
	copy(p[24:28], m.TargetIP[:])
	return b
}

// UnmarshalARPMessage parses an ARP message.
func UnmarshalARPMessage(b []byte) (*ARPMessage, error) {
	if len(b) < ARPLen {
		return nil, fmt.Errorf("packet: ARP message too short (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || binary.BigEndian.Uint16(b[2:4]) != 0x0800 {
		return nil, fmt.Errorf("packet: unsupported ARP hardware/protocol type")
	}
	m := &ARPMessage{Op: binary.BigEndian.Uint16(b[6:8])}
	copy(m.SenderMAC[:], b[8:14])
	copy(m.SenderIP[:], b[14:18])
	copy(m.TargetMAC[:], b[18:24])
	copy(m.TargetIP[:], b[24:28])
	return m, nil
}
