package packet

import "testing"

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

// BenchmarkTCPMarshal encodes a full-size segment. marshal allocates a
// fresh, exactly sized buffer per segment; marshal-to-scratch appends
// into a reused one, the path the host stack takes, and allocates
// nothing.
func BenchmarkTCPMarshal(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	s := &TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagACK, Payload: make([]byte, 1448)}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.MarshalTo(src, dst, make([]byte, 0, TCPHeaderLen+len(s.Payload)))
		}
	})
	b.Run("marshal-to-scratch", func(b *testing.B) {
		var scratch []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = s.MarshalTo(src, dst, scratch[:0])
		}
	})
}

func BenchmarkTCPUnmarshal(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	buf := (&TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagACK, Payload: make([]byte, 1448)}).MarshalTo(src, dst, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalTCPSegment(src, dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	src, dst := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	seg := &TCPSegment{SrcPort: 4242, DstPort: 80, Flags: FlagSYN}
	d := NewDatagram(src, dst, ProtoTCP, 1, seg.MarshalTo(src, dst, nil))
	f := &Frame{Type: EtherTypeIPv4, Payload: d.MarshalTo(nil)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(f); err != nil {
			b.Fatal(err)
		}
	}
}
