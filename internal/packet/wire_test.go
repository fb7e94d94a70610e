package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 discussions.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got, want := Checksum(data), uint16(0x220d); got != want {
		t.Errorf("Checksum = %#04x, want %#04x", got, want)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd final byte is padded with zero.
	odd := Checksum([]byte{0xab})
	padded := Checksum([]byte{0xab, 0x00})
	if odd != padded {
		t.Errorf("odd-length checksum %#04x != padded %#04x", odd, padded)
	}
}

// Property: the checksum of data with its own checksum inserted verifies
// to zero (the standard receive-side check).
func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		sum := Checksum(data)
		buf := append(append([]byte(nil), data...), byte(sum>>8), byte(sum))
		return Checksum(buf) == 0
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// unmarshalFrame parses an encoded Ethernet frame: the independent
// reader Frame.Marshal is checked against. The payload aliases b.
func unmarshalFrame(b []byte) (*Frame, error) {
	if len(b) < EthernetHeaderLen {
		return nil, fmt.Errorf("packet: ethernet frame too short (%d bytes)", len(b))
	}
	f := &Frame{Type: EtherType(binary.BigEndian.Uint16(b[12:14])), Payload: b[14:]}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	return f, nil
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:     MAC{2, 0, 0, 0, 0, 1},
		Src:     MAC{2, 0, 0, 0, 0, 2},
		Type:    EtherTypeIPv4,
		Payload: []byte("hello ethernet"),
	}
	got, err := unmarshalFrame(f.Marshal())
	if err != nil {
		t.Fatalf("unmarshalFrame: %v", err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameTooShort(t *testing.T) {
	if _, err := unmarshalFrame(make([]byte, 13)); err == nil {
		t.Error("13-byte frame parsed successfully")
	}
}

func TestFrameLenPadding(t *testing.T) {
	tests := []struct {
		payload int
		want    int
	}{
		{payload: 0, want: 64},
		{payload: 46, want: 64},
		{payload: 47, want: 65},
		{payload: 1500, want: 1518},
	}
	for _, tt := range tests {
		f := &Frame{Payload: make([]byte, tt.payload)}
		if got := f.FrameLen(); got != tt.want {
			t.Errorf("FrameLen(payload=%d) = %d, want %d", tt.payload, got, tt.want)
		}
	}
}

func TestFrameWireLen(t *testing.T) {
	f := &Frame{Payload: make([]byte, 1500)}
	if got := f.WireLen(); got != 1538 {
		t.Errorf("WireLen = %d, want 1538 (1518 + preamble/IFG)", got)
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{Payload: []byte{1, 2, 3}}
	c := f.Clone()
	c.Payload[0] = 9
	if f.Payload[0] != 1 {
		t.Error("Clone shares payload storage")
	}
}

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := &IPv4Header{
		TOS:      0x10,
		TotalLen: 120,
		ID:       0xbeef,
		DontFrag: true,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      MustIP("10.0.0.1"),
		Dst:      MustIP("10.0.0.2"),
	}
	b := h.MarshalTo(nil)
	got, n, err := ParseIPv4Header(append(b, make([]byte, 100)...))
	if err != nil {
		t.Fatalf("ParseIPv4Header: %v", err)
	}
	if n != IPv4HeaderLen {
		t.Errorf("consumed %d bytes, want %d", n, IPv4HeaderLen)
	}
	if got != *h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv4HeaderChecksumValidation(t *testing.T) {
	h := &IPv4Header{TotalLen: 20, TTL: 64, Protocol: ProtoUDP,
		Src: MustIP("1.1.1.1"), Dst: MustIP("2.2.2.2")}
	b := h.MarshalTo(nil)
	b[8] ^= 0xff // corrupt TTL
	if _, _, err := ParseIPv4Header(b); err == nil {
		t.Error("corrupted header parsed successfully")
	}
}

func TestIPv4RejectsNonIPv4(t *testing.T) {
	b := make([]byte, 20)
	b[0] = 0x65 // version 6
	if _, _, err := ParseIPv4Header(b); err == nil {
		t.Error("version-6 header parsed as IPv4")
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	d := NewDatagram(MustIP("10.0.0.1"), MustIP("10.0.0.2"), ProtoUDP, 7, []byte("payload"))
	got, err := UnmarshalDatagram(d.MarshalTo(nil))
	if err != nil {
		t.Fatalf("UnmarshalDatagram: %v", err)
	}
	if got.Header.Src != d.Header.Src || got.Header.Dst != d.Header.Dst ||
		got.Header.Protocol != ProtoUDP || !bytes.Equal(got.Payload, d.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, d)
	}
}

func TestDatagramTotalLenTruncates(t *testing.T) {
	d := NewDatagram(MustIP("1.1.1.1"), MustIP("2.2.2.2"), ProtoUDP, 0, []byte("abcdef"))
	b := d.MarshalTo(nil)
	// Trailing garbage beyond TotalLen (e.g. Ethernet pad bytes) must be dropped.
	b = append(b, 0xde, 0xad)
	got, err := UnmarshalDatagram(b)
	if err != nil {
		t.Fatalf("UnmarshalDatagram: %v", err)
	}
	if string(got.Payload) != "abcdef" {
		t.Errorf("payload = %q, want %q", got.Payload, "abcdef")
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	s := &TCPSegment{
		SrcPort: 4242, DstPort: 80,
		Seq: 1000, Ack: 2000,
		Flags: FlagSYN | FlagACK, Window: 65535,
		Payload: []byte("GET /"),
	}
	got, err := UnmarshalTCPSegment(src, dst, s.MarshalTo(src, dst, nil))
	if err != nil {
		t.Fatalf("UnmarshalTCPSegment: %v", err)
	}
	if got.SrcPort != s.SrcPort || got.DstPort != s.DstPort || got.Seq != s.Seq ||
		got.Ack != s.Ack || got.Flags != s.Flags || got.Window != s.Window ||
		!bytes.Equal(got.Payload, s.Payload) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestTCPChecksumCoversPseudoHeader(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	s := &TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagSYN}
	b := s.MarshalTo(src, dst, nil)
	// Same bytes with a different destination IP must fail verification.
	if _, err := UnmarshalTCPSegment(src, MustIP("10.0.0.3"), b); err == nil {
		t.Error("TCP checksum did not bind destination address")
	}
}

func TestTCPFlagsString(t *testing.T) {
	tests := []struct {
		flags TCPFlags
		want  string
	}{
		{flags: FlagSYN, want: "SYN"},
		{flags: FlagSYN | FlagACK, want: "SYN|ACK"},
		{flags: FlagFIN | FlagACK, want: "FIN|ACK"},
		{flags: 0, want: "none"},
	}
	for _, tt := range tests {
		if got := tt.flags.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", tt.flags, got, tt.want)
		}
	}
}

func TestUDPDatagramRoundTrip(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	u := &UDPDatagram{SrcPort: 5001, DstPort: 5002, Payload: []byte("iperf data")}
	got, err := UnmarshalUDPDatagram(src, dst, u.MarshalTo(src, dst, nil))
	if err != nil {
		t.Fatalf("UnmarshalUDPDatagram: %v", err)
	}
	if got.SrcPort != u.SrcPort || got.DstPort != u.DstPort || !bytes.Equal(got.Payload, u.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, u)
	}
}

func TestUDPChecksumTamperDetected(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	u := &UDPDatagram{SrcPort: 1, DstPort: 2, Payload: []byte("xyz")}
	b := u.MarshalTo(src, dst, nil)
	b[len(b)-1] ^= 0x01
	if _, err := UnmarshalUDPDatagram(src, dst, b); err == nil {
		t.Error("tampered UDP datagram parsed successfully")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	m := &ICMPMessage{Type: ICMPEchoRequest, ID: 77, Seq: 3, Payload: []byte("ping")}
	got, err := UnmarshalICMPMessage(m.MarshalTo(nil))
	if err != nil {
		t.Fatalf("UnmarshalICMPMessage: %v", err)
	}
	if got.Type != m.Type || got.ID != m.ID || got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestICMPChecksumTamperDetected(t *testing.T) {
	m := &ICMPMessage{Type: ICMPEchoReply, ID: 1}
	b := m.MarshalTo(nil)
	b[0] = ICMPEchoRequest
	if _, err := UnmarshalICMPMessage(b); err == nil {
		t.Error("tampered ICMP message parsed successfully")
	}
}

// Property: TCP segments round-trip for arbitrary field values.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) bool {
		src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
		if len(payload) > MaxPayload-IPv4HeaderLen-TCPHeaderLen {
			payload = payload[:MaxPayload-IPv4HeaderLen-TCPHeaderLen]
		}
		s := &TCPSegment{
			SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack,
			Flags: TCPFlags(flags & 0x3f), Window: window, Payload: payload,
		}
		got, err := UnmarshalTCPSegment(src, dst, s.MarshalTo(src, dst, nil))
		if err != nil {
			return false
		}
		return got.SrcPort == s.SrcPort && got.DstPort == s.DstPort &&
			got.Seq == s.Seq && got.Ack == s.Ack && got.Flags == s.Flags &&
			got.Window == s.Window && bytes.Equal(got.Payload, s.Payload)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: UDP datagrams round-trip for arbitrary payloads.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, payload []byte) bool {
		src, dst := IP{192, 0, 2, 1}, IP{192, 0, 2, 2}
		u := &UDPDatagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
		got, err := UnmarshalUDPDatagram(src, dst, u.MarshalTo(src, dst, nil))
		if err != nil {
			return false
		}
		return got.SrcPort == u.SrcPort && got.DstPort == u.DstPort &&
			bytes.Equal(got.Payload, u.Payload)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSummarizeTCP(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	seg := &TCPSegment{SrcPort: 4242, DstPort: 80, Flags: FlagSYN}
	d := NewDatagram(src, dst, ProtoTCP, 1, seg.MarshalTo(src, dst, nil))
	f := &Frame{Type: EtherTypeIPv4, Payload: d.MarshalTo(nil)}
	s, err := Summarize(f)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.Proto != ProtoTCP || s.Src != src || s.Dst != dst ||
		s.SrcPort != 4242 || s.DstPort != 80 || !s.Flags.Has(FlagSYN) || !s.HasPorts {
		t.Errorf("bad summary: %+v", s)
	}
	if s.Sealed {
		t.Error("plain IPv4 frame summarized as sealed")
	}
}

func TestSummarizeUDPAndICMP(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	u := &UDPDatagram{SrcPort: 53, DstPort: 5353, Payload: []byte("x")}
	d := NewDatagram(src, dst, ProtoUDP, 1, u.MarshalTo(src, dst, nil))
	s, err := Summarize(&Frame{Type: EtherTypeIPv4, Payload: d.MarshalTo(nil)})
	if err != nil {
		t.Fatalf("Summarize UDP: %v", err)
	}
	if s.Proto != ProtoUDP || s.SrcPort != 53 || s.DstPort != 5353 {
		t.Errorf("bad UDP summary: %+v", s)
	}

	m := &ICMPMessage{Type: ICMPEchoRequest}
	d2 := NewDatagram(src, dst, ProtoICMP, 2, m.MarshalTo(nil))
	s2, err := Summarize(&Frame{Type: EtherTypeIPv4, Payload: d2.MarshalTo(nil)})
	if err != nil {
		t.Fatalf("Summarize ICMP: %v", err)
	}
	if s2.HasPorts {
		t.Error("ICMP summary claims ports")
	}
	if s2.Proto != ProtoICMP {
		t.Errorf("proto = %v, want icmp", s2.Proto)
	}
}

func TestSummarizeRejectsUnknownEtherType(t *testing.T) {
	if _, err := Summarize(&Frame{Type: 0x0806}); err == nil {
		t.Error("frame of unknown EtherType 0x0806 summarized successfully")
	}
}

func TestSummarizeTruncatedTransport(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	d := NewDatagram(src, dst, ProtoTCP, 1, make([]byte, 5)) // < TCP header
	if _, err := Summarize(&Frame{Type: EtherTypeIPv4, Payload: d.MarshalTo(nil)}); err == nil {
		t.Error("truncated TCP summarized successfully")
	}
}

// sinkPort keeps TestDecodersDoNotAllocate's decodes from being
// discarded, as a caller's use of a decoded field would.
var sinkPort uint16

// The receive path decodes every frame; its decoders return values
// that alias the input and must not allocate.
func TestDecodersDoNotAllocate(t *testing.T) {
	wires := fuzzSeedDatagrams() // UDP, TCP, ICMP
	var decoded [3]Datagram
	for i, w := range wires {
		d, err := UnmarshalDatagram(w)
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = d
	}
	udp, tcp, icmp := decoded[0], decoded[1], decoded[2]
	for _, tc := range []struct {
		name   string
		decode func() uint16
		want   uint16
	}{
		{"UnmarshalDatagram", func() uint16 {
			d, _ := UnmarshalDatagram(wires[1])
			return uint16(d.Header.Protocol)
		}, uint16(ProtoTCP)},
		{"UnmarshalUDPDatagram", func() uint16 {
			u, _ := UnmarshalUDPDatagram(udp.Header.Src, udp.Header.Dst, udp.Payload)
			return u.DstPort
		}, 9},
		{"UnmarshalTCPSegment", func() uint16 {
			s, _ := UnmarshalTCPSegment(tcp.Header.Src, tcp.Header.Dst, tcp.Payload)
			return s.DstPort
		}, 80},
		{"UnmarshalICMPMessage", func() uint16 {
			m, _ := UnmarshalICMPMessage(icmp.Payload)
			return m.ID
		}, 0x4242},
	} {
		if allocs := testing.AllocsPerRun(100, func() { sinkPort = tc.decode() }); allocs != 0 {
			t.Errorf("%s: %v allocs per decode, want 0", tc.name, allocs)
		}
		if sinkPort != tc.want {
			t.Errorf("%s decoded %d, want %d", tc.name, sinkPort, tc.want)
		}
	}
}
