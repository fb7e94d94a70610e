package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func bigDatagram(size int) *Datagram {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	d := NewDatagram(MustIP("10.0.0.1"), MustIP("10.0.0.2"), ProtoUDP, 77, payload)
	d.Header.DontFrag = false
	return d
}

func TestFragmentSplitsOnEightByteBoundaries(t *testing.T) {
	d := bigDatagram(100)
	frags, err := Fragment(d, IPv4HeaderLen+30)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 5 { // chunks of 24 bytes: 24*4 + 4
		t.Fatalf("fragments = %d, want 5", len(frags))
	}
	for i, f := range frags {
		if f.Header.FragOffset%8 != 0 {
			t.Errorf("fragment %d offset %d not 8-aligned", i, f.Header.FragOffset)
		}
		wantMore := i < len(frags)-1
		if f.Header.MoreFrags != wantMore {
			t.Errorf("fragment %d MoreFrags = %v", i, f.Header.MoreFrags)
		}
		if f.Header.ID != d.Header.ID {
			t.Errorf("fragment %d lost the datagram ID", i)
		}
	}
}

func TestFragmentNoopWhenFits(t *testing.T) {
	d := bigDatagram(50)
	frags, err := Fragment(d, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0] != d {
		t.Errorf("small datagram was fragmented: %d pieces", len(frags))
	}
}

func TestFragmentHonorsDF(t *testing.T) {
	d := bigDatagram(100)
	d.Header.DontFrag = true
	if _, err := Fragment(d, IPv4HeaderLen+16); err == nil {
		t.Error("DF datagram fragmented")
	}
}

func TestFragmentRejectsTinyMTU(t *testing.T) {
	if _, err := Fragment(bigDatagram(100), IPv4HeaderLen+4); err == nil {
		t.Error("mtu below minimum accepted")
	}
}

func TestReassembleInOrder(t *testing.T) {
	d := bigDatagram(100)
	frags, err := Fragment(d, IPv4HeaderLen+32)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(0, 0)
	for i, f := range frags {
		whole := r.Add(f)
		if i < len(frags)-1 {
			if whole != nil {
				t.Fatalf("reassembled early at fragment %d", i)
			}
			continue
		}
		if whole == nil {
			t.Fatal("never reassembled")
		}
		if !bytes.Equal(whole.Payload, d.Payload) {
			t.Error("payload mismatch after reassembly")
		}
		if whole.Header.IsFragment() {
			t.Error("reassembled datagram still marked as fragment")
		}
	}
	if done, _, _ := r.Stats(); done != 1 {
		t.Errorf("completed = %d", done)
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after completion", r.Pending())
	}
}

// Property: fragments reassemble to the original payload under any
// permutation and any (valid) MTU.
func TestReassembleAnyOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(sizeRaw uint16, mtuRaw uint8, permSeed int64) bool {
		size := 64 + int(sizeRaw)%1400
		mtu := IPv4HeaderLen + 16 + int(mtuRaw)%256
		d := bigDatagram(size)
		frags, err := Fragment(d, mtu)
		if err != nil {
			return false
		}
		perm := rand.New(rand.NewSource(permSeed)).Perm(len(frags))
		r := NewReassembler(0, 0)
		var whole *Datagram
		for _, idx := range perm {
			if w := r.Add(frags[idx]); w != nil {
				whole = w
			}
		}
		return whole != nil && bytes.Equal(whole.Payload, d.Payload) &&
			whole.Header.Protocol == d.Header.Protocol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestReassemblerMissingFragmentNeverCompletes(t *testing.T) {
	d := bigDatagram(100)
	frags, err := Fragment(d, IPv4HeaderLen+32)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(0, 0)
	// Withhold the first fragment (the EXT3 attack pattern: the filter
	// denied it).
	for _, f := range frags[1:] {
		if whole := r.Add(f); whole != nil {
			t.Fatal("reassembled without the first fragment")
		}
	}
	if r.Pending() != 1 {
		t.Errorf("pending = %d", r.Pending())
	}
}

func TestReassemblerEvictsUnderFloodPressure(t *testing.T) {
	r := NewReassembler(4, 0)
	// Offer 10 distinct half-finished datagrams.
	for id := 0; id < 10; id++ {
		d := bigDatagram(64)
		d.Header.ID = uint16(id)
		frags, err := Fragment(d, IPv4HeaderLen+40)
		if err != nil {
			t.Fatal(err)
		}
		r.Add(frags[0]) // only the first piece
	}
	if r.Pending() != 4 {
		t.Errorf("pending = %d, want capped at 4", r.Pending())
	}
	if _, evicted, _ := r.Stats(); evicted != 6 {
		t.Errorf("evicted = %d, want 6", evicted)
	}
}

func TestReassemblerOversizeAborts(t *testing.T) {
	r := NewReassembler(0, 64)
	d := bigDatagram(200)
	frags, err := Fragment(d, IPv4HeaderLen+48)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if whole := r.Add(f); whole != nil {
			t.Fatal("oversize datagram reassembled")
		}
	}
	// Each abort discards buffered fragments; stragglers may restart the
	// reassembly and trip the bound again.
	if _, _, oversize := r.Stats(); oversize == 0 {
		t.Error("oversize abort not counted")
	}
}

// The receive path decodes fragments that alias the frame's bytes, so
// the reassembler must keep its own copy of what it holds.
func TestReassemblerCopiesFragments(t *testing.T) {
	d := bigDatagram(100)
	want := append([]byte(nil), d.Payload...)
	frags, err := Fragment(d, IPv4HeaderLen+30)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(0, 0)
	var whole *Datagram
	for _, f := range frags {
		whole = r.Add(f)
		clear(f.Payload) // the caller reuses its buffer
	}
	if whole == nil || !bytes.Equal(whole.Payload, want) {
		t.Errorf("reassembled %v, want the original payload", whole)
	}
}

func TestFragmentHeaderRoundTrip(t *testing.T) {
	h := &IPv4Header{
		TotalLen: 60, ID: 9, MoreFrags: true, FragOffset: 1480,
		TTL: 64, Protocol: ProtoUDP,
		Src: MustIP("1.1.1.1"), Dst: MustIP("2.2.2.2"),
	}
	got, _, err := ParseIPv4Header(append(h.MarshalTo(nil), make([]byte, 40)...))
	if err != nil {
		t.Fatal(err)
	}
	if !got.MoreFrags || got.FragOffset != 1480 || !got.IsFragment() {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSummarizeFragments(t *testing.T) {
	d := bigDatagram(100)
	u := &UDPDatagram{SrcPort: 9, DstPort: 7, Payload: make([]byte, 92)}
	d.Payload = u.MarshalTo(d.Header.Src, d.Header.Dst, nil)
	frags, err := Fragment(d, IPv4HeaderLen+32)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SummarizeIPv4(frags[0].MarshalTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Fragment || !first.HasPorts || first.DstPort != 7 {
		t.Errorf("first fragment summary = %+v", first)
	}
	later, err := SummarizeIPv4(frags[1].MarshalTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !later.Fragment || later.HasPorts {
		t.Errorf("later fragment summary = %+v (ports must be invisible)", later)
	}
}
