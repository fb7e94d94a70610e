package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedDatagrams returns one valid wire image per transport the
// simulator decodes: UDP, TCP and ICMP.
func fuzzSeedDatagrams() [][]byte {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	udp := (&UDPDatagram{SrcPort: 5001, DstPort: 9, Payload: []byte("flood")}).MarshalTo(src, dst, nil)
	tcp := (&TCPSegment{SrcPort: 4242, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagPSH | FlagACK,
		Window: 65535, Payload: []byte("GET /")}).MarshalTo(src, dst, nil)
	icmp := (&ICMPMessage{Type: ICMPEchoRequest, ID: 0x4242, Seq: 1, Payload: []byte("ping")}).MarshalTo(nil)
	return [][]byte{
		NewDatagram(src, dst, ProtoUDP, 1, udp).MarshalTo(nil),
		NewDatagram(src, dst, ProtoTCP, 2, tcp).MarshalTo(nil),
		NewDatagram(src, dst, ProtoICMP, 3, icmp).MarshalTo(nil),
	}
}

// corrupt returns a copy of wire with edit applied and, when fixSum is
// set, the IPv4 header checksum recomputed, so the edit is the only
// thing wrong with the datagram.
func corrupt(wire []byte, fixSum bool, edit func(b []byte)) []byte {
	b := append([]byte(nil), wire...)
	edit(b)
	if fixSum {
		ihl := int(b[0]&0x0f) * 4
		if ihl < IPv4HeaderLen || ihl > len(b) {
			ihl = IPv4HeaderLen
		}
		binary.BigEndian.PutUint16(b[10:12], 0)
		binary.BigEndian.PutUint16(b[10:12], Checksum(b[:ihl]))
	}
	return b
}

// FuzzUnmarshalDatagram feeds arbitrary bytes to the receive path's
// decoders: UnmarshalDatagram, the matching transport decoder, and
// SummarizeIPv4. None may panic. A datagram UnmarshalDatagram accepts
// must agree with SummarizeIPv4 on addresses, protocol and length, must
// summarize identically from its decoded form (the host firewall's
// path), and, without IP options, must re-marshal to the bytes it was
// decoded from. The seed corpus is every truncation of a valid UDP, TCP
// and ICMP datagram plus bad version, IHL, TotalLen and checksum cases,
// so plain `go test` replays all of them.
//
//	go test -run '^$' -fuzz '^FuzzUnmarshalDatagram$' -fuzztime 10s ./internal/packet
func FuzzUnmarshalDatagram(f *testing.F) {
	setLen := func(n int) func(b []byte) {
		return func(b []byte) { binary.BigEndian.PutUint16(b[2:4], uint16(n)) }
	}
	for _, wire := range fuzzSeedDatagrams() {
		for cut := 0; cut <= len(wire); cut++ {
			f.Add(wire[:cut])
		}
		// Link-layer padding past TotalLen.
		f.Add(append(append([]byte(nil), wire...), 0xde, 0xad))
		// Version 6; IHL of 16, 24 (options) and 60 bytes.
		for _, vihl := range []byte{0x65, 0x44, 0x46, 0x4f} {
			f.Add(corrupt(wire, true, func(b []byte) { b[0] = vihl }))
		}
		// TotalLen below the header, past the buffer, and cutting the
		// transport header short.
		for _, n := range []int{IPv4HeaderLen - 1, len(wire) + 1, IPv4HeaderLen + 3} {
			f.Add(corrupt(wire, true, setLen(n)))
		}
		// A later fragment, which carries no transport header.
		f.Add(corrupt(wire, true, func(b []byte) { binary.BigEndian.PutUint16(b[6:8], 0x2000|185) }))
		// Header and transport checksum mismatches.
		f.Add(corrupt(wire, false, func(b []byte) { b[8]-- }))
		f.Add(corrupt(wire, false, func(b []byte) { b[len(b)-1] ^= 0x01 }))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, serr := SummarizeIPv4(b)
		d, err := UnmarshalDatagram(b)
		if err != nil {
			if serr == nil {
				t.Fatalf("SummarizeIPv4 accepted a datagram UnmarshalDatagram rejects (%v)", err)
			}
			return
		}
		switch d.Header.Protocol {
		case ProtoUDP:
			_, _ = UnmarshalUDPDatagram(d.Header.Src, d.Header.Dst, d.Payload)
		case ProtoTCP:
			_, _ = UnmarshalTCPSegment(d.Header.Src, d.Header.Dst, d.Payload)
		case ProtoICMP:
			_, _ = UnmarshalICMPMessage(d.Payload)
		}
		if s.Src != d.Header.Src || s.Dst != d.Header.Dst || s.Proto != d.Header.Protocol || s.IPLen != d.Header.TotalLen {
			t.Fatalf("SummarizeIPv4 = %+v disagrees with header %+v", s, d.Header)
		}
		ds, dserr := SummarizeDatagram(&d)
		if (serr == nil) != (dserr == nil) {
			t.Fatalf("SummarizeDatagram error %v, SummarizeIPv4 error %v", dserr, serr)
		}
		ihl := int(b[0]&0x0f) * 4
		ds.IPLen = s.IPLen // the decoded form drops IP options, so only IPLen may differ
		if ds != s {
			t.Fatalf("SummarizeDatagram = %+v, SummarizeIPv4 = %+v", ds, s)
		}
		if ihl != IPv4HeaderLen {
			return
		}
		// Without options the decoder loses only what it normalizes: the
		// reserved flag bit, and with it the checksum, which MarshalTo
		// recomputes (0x0000 and 0xffff both verify when the rest of the
		// header sums to 0xffff). Compare the rest byte for byte.
		got := d.MarshalTo(nil)
		if Checksum(got[:IPv4HeaderLen]) != 0 {
			t.Fatalf("re-marshaled header %x fails its checksum", got[:IPv4HeaderLen])
		}
		want := append([]byte(nil), b[:d.Header.TotalLen]...)
		want[6] &^= 0x80
		got[10], got[11], want[10], want[11] = 0, 0, 0, 0
		if !bytes.Equal(got, want) {
			t.Fatalf("re-marshal changed the datagram:\n got %x\nwant %x", got, want)
		}
	})
}
