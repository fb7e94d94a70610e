package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"barbican/internal/apps"
	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/measure"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/trace"
)

func clientEndpoint(tb *core.Testbed) *link.Endpoint   { return tb.Client.NIC().Endpoint() }
func attackerEndpoint(tb *core.Testbed) *link.Endpoint { return tb.Attacker.NIC().Endpoint() }

// TestCaptureTCPHandshake: a client-side tap records the three-way
// handshake, SYN and ACK outbound and SYN/ACK inbound, and sees frames
// in both directions (told apart by the client's MAC).
func TestCaptureTCPHandshake(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel)
	cap.Tap(clientEndpoint(tb))

	if _, err := apps.NewHTTPServer(tb.Target); err != nil {
		t.Fatal(err)
	}
	client := apps.NewHTTPClient(tb.Client)
	if err := client.Get(tb.Target.IP(), 80, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}

	if cap.Len() == 0 {
		t.Fatal("capture is empty")
	}
	mac := tb.Client.NIC().MAC()
	c, s := tb.Client.IP(), tb.Target.IP()
	sawTX, sawRX := false, false
	var syn, synAck, ack bool
	for _, r := range cap.Records() {
		if r.Frame.Src == mac {
			sawTX = true
		} else {
			sawRX = true
		}
		sum, err := packet.Summarize(r.Frame)
		if err != nil || sum.Proto != packet.ProtoTCP {
			continue
		}
		out := sum.Src == c && sum.Dst == s
		in := sum.Src == s && sum.Dst == c
		switch sum.Flags {
		case packet.FlagSYN:
			syn = syn || out
		case packet.FlagSYN | packet.FlagACK:
			synAck = synAck || in
		case packet.FlagACK:
			ack = ack || out
		}
	}
	if !syn || !synAck || !ack {
		t.Errorf("handshake: SYN=%v SYN/ACK=%v ACK=%v, want all", syn, synAck, ack)
	}
	if !sawTX || !sawRX {
		t.Errorf("tap directions: tx=%v rx=%v", sawTX, sawRX)
	}
}

// TestCaptureSealedVPGFrames: with a VPG policy on both cards, the
// wire carries the datagram sealed; no cleartext UDP frame, and no
// plaintext payload byte run, appears on it.
func TestCaptureSealedVPGFrames(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{ClientDevice: core.DeviceADF, TargetDevice: core.DeviceADF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.SetupVPG("psq", "k", tb.Client, tb.Target); err != nil {
		t.Fatal(err)
	}
	prefix := packet.MustPrefix("10.0.0.0/24")
	tb.InstallPolicy(tb.Client, fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", tb.Client.IP(), prefix)...))
	tb.InstallPolicy(tb.Target, fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", tb.Target.IP(), prefix)...))

	cap := trace.NewCapture(tb.Kernel)
	cap.Tap(clientEndpoint(tb))

	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("secret")
	sock.SendTo(tb.Target.IP(), 7000, secret)
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sealed := 0
	for i, r := range cap.Records() {
		s, err := packet.Summarize(r.Frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if s.Sealed {
			sealed++
		} else if s.Proto == packet.ProtoUDP && s.IPLen-packet.IPv4HeaderLen-packet.UDPHeaderLen == len(secret) {
			t.Errorf("frame %d: cleartext UDP visible on the wire despite VPG policy", i)
		}
		if bytes.Contains(r.Frame.Payload, secret) {
			t.Errorf("frame %d: plaintext payload on the wire", i)
		}
	}
	if sealed == 0 {
		t.Errorf("no sealed frame among %d captured", cap.Len())
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel)
	cap.Tap(clientEndpoint(tb))

	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sock.SendTo(tb.Target.IP(), 5001, make([]byte, 100))
	}
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cap.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	frames, err := trace.ReadPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != cap.Len() {
		t.Fatalf("pcap frames = %d, capture = %d", len(frames), cap.Len())
	}
	// Each record must be an Ethernet frame with an IPv4 payload.
	for i, raw := range frames {
		if len(raw) < packet.EthernetHeaderLen {
			t.Fatalf("frame %d: %d bytes, shorter than an Ethernet header", i, len(raw))
		}
		if typ := packet.EtherType(binary.BigEndian.Uint16(raw[12:14])); typ != packet.EtherTypeIPv4 {
			t.Fatalf("frame %d: ethertype %v, want IPv4", i, typ)
		}
		if _, err := packet.SummarizeIPv4(raw[packet.EthernetHeaderLen:]); err != nil {
			t.Fatalf("frame %d payload: %v", i, err)
		}
	}
}

// TestCaptureLimitEvicts: one frame past CaptureLimit evicts exactly
// the oldest record.
func TestCaptureLimitEvicts(t *testing.T) {
	k := sim.NewKernel()
	a, _ := link.New(k, link.Config{QueueFrames: trace.CaptureLimit + 1})
	cap := trace.NewCapture(k)
	cap.Tap(a)
	for i := 0; i <= trace.CaptureLimit; i++ {
		p := binary.BigEndian.AppendUint32(nil, uint32(i))
		if !a.Send(&packet.Frame{Type: packet.EtherTypeIPv4, Payload: p}) {
			t.Fatalf("frame %d refused", i)
		}
	}
	if cap.Len() != trace.CaptureLimit || cap.Dropped() != 1 {
		t.Fatalf("retained %d records, dropped %d; want %d and 1", cap.Len(), cap.Dropped(), trace.CaptureLimit)
	}
	recs := cap.Records()
	first := binary.BigEndian.Uint32(recs[0].Frame.Payload)
	last := binary.BigEndian.Uint32(recs[len(recs)-1].Frame.Payload)
	if first != 1 || last != trace.CaptureLimit {
		t.Errorf("retained frames %d..%d, want 1..%d", first, last, trace.CaptureLimit)
	}
}

func TestCaptureFloodIsVisible(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel)
	cap.Tap(attackerEndpoint(tb))
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
		RatePPS: 1000, DstPort: 7,
	})
	f.Start()
	tb.Kernel.After(100*time.Millisecond, f.Stop)
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if cap.Len() < 90 {
		t.Errorf("captured %d flood frames, want ≈100", cap.Len())
	}
	s, err := packet.Summarize(cap.Records()[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proto != packet.ProtoUDP || s.DstPort != 7 {
		t.Errorf("first flood frame is %v, want UDP to port 7", s)
	}
}
