package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMP message types used by the simulator.
const (
	ICMPEchoReply       = 0
	ICMPDestUnreach     = 3
	ICMPEchoRequest     = 8
	ICMPTimeExceeded    = 11
	ICMPCodePortUnreach = 3 // code for ICMPDestUnreach
)

// ICMPHeaderLen is the fixed ICMP header length.
const ICMPHeaderLen = 8

// ICMPMessage is an ICMP header plus body.
type ICMPMessage struct {
	Type uint8
	Code uint8
	// ID and Seq hold the identifier/sequence for echo messages and the
	// unused field otherwise.
	ID      uint16
	Seq     uint16
	Payload []byte
}

// MarshalTo appends the encoded message to b and returns the extended
// slice.
func (m *ICMPMessage) MarshalTo(b []byte) []byte {
	b, off := grow(b, ICMPHeaderLen+len(m.Payload))
	p := b[off:]
	p[0] = m.Type
	p[1] = m.Code
	binary.BigEndian.PutUint16(p[4:6], m.ID)
	binary.BigEndian.PutUint16(p[6:8], m.Seq)
	copy(p[ICMPHeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(p[2:4], Checksum(p))
	return b
}

// UnmarshalICMPMessage parses an ICMP message and verifies its checksum.
// The payload aliases b. It allocates only on error.
//
//barbican:noalloc
func UnmarshalICMPMessage(b []byte) (ICMPMessage, error) {
	if len(b) < ICMPHeaderLen {
		return ICMPMessage{}, fmt.Errorf("packet: ICMP message too short (%d bytes)", len(b)) //barbican:allow alloc -- error path
	}
	if Checksum(b) != 0 {
		return ICMPMessage{}, fmt.Errorf("packet: ICMP checksum mismatch")
	}
	return ICMPMessage{
		Type:    b[0],
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Payload: b[ICMPHeaderLen:],
	}, nil
}
