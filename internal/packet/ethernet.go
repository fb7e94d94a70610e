package packet

import "encoding/binary"

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes carried on the simulated network.
const (
	EtherTypeIPv4 EtherType = 0x0800
	// EtherTypeVPG marks frames sealed by a virtual private group. Real
	// ADF cards carry VPG data in-band; we use a dedicated EtherType so
	// sealed frames are unambiguous on the wire.
	EtherTypeVPG EtherType = 0x88b7 // OUI extended ethertype, locally chosen
)

// Ethernet layer constants, in bytes.
const (
	EthernetHeaderLen = 14
	EthernetFCSLen    = 4
	// EthernetOverhead is the per-frame wire overhead outside the
	// header+payload+FCS: 7-byte preamble, 1-byte SFD, 12-byte minimum
	// inter-frame gap.
	EthernetOverhead = 20
	// MaxPayload is the standard Ethernet MTU.
	MaxPayload = 1500
	// MinFrameLen is the minimum Ethernet frame length (header + payload
	// + FCS); shorter frames are padded on the wire.
	MinFrameLen = 64
	// MaxFrameLen is the maximum standard frame length: 14-byte header +
	// 1500-byte payload + 4-byte FCS = 1518, the size the paper floods
	// with in the bandwidth experiments.
	MaxFrameLen = EthernetHeaderLen + MaxPayload + EthernetFCSLen
)

// Frame is an Ethernet II frame.
type Frame struct {
	Dst  MAC
	Src  MAC
	Type EtherType
	// state is the frame's standing with the FramePool that issued it
	// (frameUnpooled for a frame built directly). It sits beside Type,
	// in what would be padding, so pooling adds no byte to a frame.
	state frameState

	Payload []byte

	// TraceID is simulator-side metadata, not part of the wire
	// format: a nonzero value marks the frame as carrying a sampled
	// packet-lifecycle trace (internal/obs/tracing). Marshal ignores
	// it; Clone propagates it.
	TraceID uint64
}

// FrameLen returns the frame length counted the way the paper counts it:
// header + payload + FCS, padded to the Ethernet minimum.
func (f *Frame) FrameLen() int {
	n := EthernetHeaderLen + len(f.Payload) + EthernetFCSLen
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// WireLen returns the number of byte times the frame occupies on the
// medium, including preamble and inter-frame gap. This is the quantity
// that bounds achievable frame rates on a 100 Mbps link.
func (f *Frame) WireLen() int { return f.FrameLen() + EthernetOverhead }

// Marshal encodes the frame header and payload (FCS is not materialized;
// the simulated medium does not corrupt frames).
func (f *Frame) Marshal() []byte {
	return f.MarshalTo(make([]byte, 0, EthernetHeaderLen+len(f.Payload)))
}

// MarshalTo appends the encoded frame to b and returns the extended
// slice. Passing a scratch buffer with sufficient capacity makes the
// encode allocation-free.
func (f *Frame) MarshalTo(b []byte) []byte {
	b, off := grow(b, EthernetHeaderLen+len(f.Payload))
	p := b[off:]
	copy(p[0:6], f.Dst[:])
	copy(p[6:12], f.Src[:])
	binary.BigEndian.PutUint16(p[12:14], uint16(f.Type))
	copy(p[14:], f.Payload)
	return b
}

// grow extends b by n bytes (growing capacity only when needed) and
// returns the extended slice plus the offset of the new region.
func grow(b []byte, n int) ([]byte, int) {
	off := len(b)
	if cap(b)-off < n {
		nb := make([]byte, off+n, max(2*cap(b), off+n))
		copy(nb, b)
		return nb, off
	}
	b = b[:off+n]
	clear(b[off:])
	return b, off
}

// Clone returns a deep heap copy of the frame that no pool owns, for a
// holder that keeps a frame past its owner's release (a wire capture).
// FramePool.Clone makes a pooled copy.
func (f *Frame) Clone() *Frame {
	c := *f
	c.Payload = append([]byte(nil), f.Payload...)
	c.state = frameUnpooled
	return &c
}
