package trace_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"barbican/internal/apps"
	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/measure"
	"barbican/internal/packet"
	"barbican/internal/trace"
)

func clientEndpoint(tb *core.Testbed) *link.Endpoint   { return tb.Client.NIC().Endpoint() }
func attackerEndpoint(tb *core.Testbed) *link.Endpoint { return tb.Attacker.NIC().Endpoint() }

func TestCaptureTCPHandshake(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel, 0)
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
	dump := cap.Dump()
	for _, want := range []string{"Flags [S]", "Flags [S.]", "Flags [.]", "10.0.0.1", "10.0.0.2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, truncate(dump, 1200))
		}
	}
	// Directionality: the tap sees both tx and rx.
	sawTX, sawRX := false, false
	for _, r := range cap.Records() {
		switch r.Dir {
		case trace.TX:
			sawTX = true
		case trace.RX:
			sawRX = true
		}
	}
	if !sawTX || !sawRX {
		t.Errorf("tap directions: tx=%v rx=%v", sawTX, sawRX)
	}
}

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

	cap := trace.NewCapture(tb.Kernel, 0)
	cap.Tap(clientEndpoint(tb))

	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(tb.Target.IP(), 7000, []byte("secret"))
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	dump := cap.Dump()
	if !strings.Contains(dump, "sealed") {
		t.Errorf("VPG frame not rendered as sealed:\n%s", dump)
	}
	if strings.Contains(dump, "UDP, length 6") {
		t.Error("cleartext UDP visible on the wire despite VPG policy")
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel, 0)
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

func TestCaptureLimitEvicts(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel, 4)
	cap.Tap(clientEndpoint(tb))
	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sock.SendTo(tb.Target.IP(), 5001, make([]byte, 10))
	}
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if cap.Len() != 4 {
		t.Errorf("retained %d records, want 4", cap.Len())
	}
	if cap.Dropped() == 0 {
		t.Error("no evictions recorded")
	}
}

func TestCaptureFloodIsVisible(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cap := trace.NewCapture(tb.Kernel, 0)
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
	if !strings.Contains(trace.Format(cap.Records()[0]), "UDP") {
		t.Errorf("flood frame rendering: %s", trace.Format(cap.Records()[0]))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
