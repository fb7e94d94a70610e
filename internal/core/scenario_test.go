package core

import (
	"testing"
	"time"

	"barbican/internal/measure"
	"barbican/internal/nic"
)

// Shape invariants from the paper. Absolute numbers are the simulator's,
// but orderings, knees, and ratios must match the published findings.

func bw(t *testing.T, s Scenario) BandwidthPoint {
	t.Helper()
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	p, err := RunBandwidth(s)
	if err != nil {
		t.Fatalf("RunBandwidth(%+v): %v", s, err)
	}
	return p
}

func TestStandardNICFullBandwidth(t *testing.T) {
	p := bw(t, Scenario{Device: DeviceStandard})
	if p.Mbps() < 90 {
		t.Errorf("standard NIC bandwidth = %.1f Mbps, want >90", p.Mbps())
	}
}

func TestEFWFullBandwidthAtShallowDepth(t *testing.T) {
	for _, depth := range []int{1, 8, 16} {
		p := bw(t, Scenario{Device: DeviceEFW, Depth: depth})
		if p.Mbps() < 90 {
			t.Errorf("EFW depth %d = %.1f Mbps, want >90 (no significant loss under 20 rules)", depth, p.Mbps())
		}
	}
}

func TestEFWLosesHalfBandwidthAt64Rules(t *testing.T) {
	p := bw(t, Scenario{Device: DeviceEFW, Depth: 64})
	if p.Mbps() < 40 || p.Mbps() > 60 {
		t.Errorf("EFW depth 64 = %.1f Mbps, want ≈50 (paper: half of full speed)", p.Mbps())
	}
}

func TestADFSlowerThanEFWAt64Rules(t *testing.T) {
	efw := bw(t, Scenario{Device: DeviceEFW, Depth: 64})
	adf := bw(t, Scenario{Device: DeviceADF, Depth: 64})
	if adf.Mbps() >= efw.Mbps() {
		t.Errorf("ADF (%.1f) not slower than EFW (%.1f) at 64 rules", adf.Mbps(), efw.Mbps())
	}
	if adf.Mbps() < 25 || adf.Mbps() > 40 {
		t.Errorf("ADF depth 64 = %.1f Mbps, want ≈33", adf.Mbps())
	}
}

func TestIPTablesNoLossAt64Rules(t *testing.T) {
	p := bw(t, Scenario{Device: DeviceIPTables, Depth: 64})
	if p.Mbps() < 90 {
		t.Errorf("iptables depth 64 = %.1f Mbps, want >90 (paper/Hoffman: no loss)", p.Mbps())
	}
}

func TestBandwidthMonotoneInDepth(t *testing.T) {
	prev := 1e9
	for _, depth := range []int{1, 16, 32, 64} {
		p := bw(t, Scenario{Device: DeviceADF, Depth: depth})
		if p.Mbps() > prev*1.05 {
			t.Errorf("ADF bandwidth increased with depth at %d: %.1f > %.1f", depth, p.Mbps(), prev)
		}
		prev = p.Mbps()
	}
}

func TestVPGCostsBandwidth(t *testing.T) {
	plain := bw(t, Scenario{Device: DeviceADF, Depth: 2})
	one := bw(t, Scenario{Device: DeviceADFVPG, Depth: 1})
	if one.Mbps() >= plain.Mbps()*0.8 {
		t.Errorf("one VPG (%.1f) should cost well below a shallow plain rule-set (%.1f)", one.Mbps(), plain.Mbps())
	}
	// Non-matching VPGs above the action pair are nearly free (the ADF
	// does not decrypt until the matching rule).
	four := bw(t, Scenario{Device: DeviceADFVPG, Depth: 4})
	if four.Mbps() < one.Mbps()*0.80 {
		t.Errorf("4 VPGs (%.1f) should cost little more than 1 VPG (%.1f)", four.Mbps(), one.Mbps())
	}
}

func TestFloodKillsEFWButNotStandardOrIPTables(t *testing.T) {
	flood := func(dev Device, depth int) BandwidthPoint {
		return bw(t, Scenario{Device: dev, Depth: depth, FloodRatePPS: 12_500, FloodAllowed: true})
	}
	if p := flood(DeviceEFW, 1); p.Mbps() > DoSThresholdMbps {
		t.Errorf("EFW under 12.5k pps flood = %.1f Mbps, want ≈0", p.Mbps())
	}
	if p := flood(DeviceADF, 1); p.Mbps() > 2*DoSThresholdMbps {
		t.Errorf("ADF under 12.5k pps flood = %.1f Mbps, want ≈0", p.Mbps())
	}
	if p := flood(DeviceStandard, 0); p.Mbps() < 70 {
		t.Errorf("standard NIC under 12.5k pps flood = %.1f Mbps, want ≥70 (paper: 77)", p.Mbps())
	}
	if p := flood(DeviceIPTables, 1); p.Mbps() < 70 {
		t.Errorf("iptables under 12.5k pps flood = %.1f Mbps, want ≥70 (paper: 77)", p.Mbps())
	}
}

func TestFloodBandwidthMonotoneInRate(t *testing.T) {
	prev := 1e9
	for _, rate := range []float64{0, 6000, 10000, 12500} {
		p := bw(t, Scenario{Device: DeviceEFW, Depth: 1, FloodRatePPS: rate, FloodAllowed: true})
		if p.Mbps() > prev*1.10 {
			t.Errorf("EFW bandwidth increased with flood rate at %.0f pps: %.1f > %.1f", rate, p.Mbps(), prev)
		}
		prev = p.Mbps()
	}
}

func TestMinFloodRateDeclinesWithDepth(t *testing.T) {
	shallow, err := MinFloodRate(Scenario{Device: DeviceEFW, Depth: 1, FloodAllowed: true})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := MinFloodRate(Scenario{Device: DeviceEFW, Depth: 64, FloodAllowed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !shallow.Found || !deep.Found {
		t.Fatalf("search did not find DoS rates: %+v / %+v", shallow, deep)
	}
	if deep.RatePPS >= shallow.RatePPS {
		t.Errorf("min flood rate did not decline with depth: %0.f vs %0.f", deep.RatePPS, shallow.RatePPS)
	}
	// Paper anchors: ≈12,500 at 1 rule, ≈4,500 at 64 rules.
	if shallow.RatePPS < 9_000 || shallow.RatePPS > 16_000 {
		t.Errorf("1-rule min flood = %.0f pps, want ≈12,500", shallow.RatePPS)
	}
	if deep.RatePPS < 2_500 || deep.RatePPS > 6_500 {
		t.Errorf("64-rule min flood = %.0f pps, want ≈4,500", deep.RatePPS)
	}
}

func TestDenyingFloodRoughlyDoublesMinRate(t *testing.T) {
	allow, err := MinFloodRate(Scenario{Device: DeviceADF, Depth: 64, FloodAllowed: true})
	if err != nil {
		t.Fatal(err)
	}
	deny, err := MinFloodRate(Scenario{Device: DeviceADF, Depth: 64, FloodAllowed: false})
	if err != nil {
		t.Fatal(err)
	}
	ratio := deny.RatePPS / allow.RatePPS
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("deny/allow min flood ratio = %.2f, want ≈2 (suppressed responses halve card load)", ratio)
	}
}

func TestEFWDenyAllLocksUpJustAbove1000PPS(t *testing.T) {
	r, err := MinFloodRate(Scenario{Device: DeviceEFW, Depth: 64, FloodAllowed: false})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || !r.LockedUp {
		t.Fatalf("EFW deny case did not lock up: %+v", r)
	}
	if r.RatePPS < 900 || r.RatePPS > 1600 {
		t.Errorf("EFW lockup rate = %.0f pps, want just above 1,000 (paper: >1000 pps wedges the card)", r.RatePPS)
	}
}

func TestHTTPPerformanceShape(t *testing.T) {
	run := func(dev Device, depth int) HTTPPoint {
		p, err := RunHTTP(Scenario{Device: dev, Depth: depth, Duration: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if p.Load.Errors > 0 {
			t.Fatalf("%v depth %d: %d fetch errors", dev, depth, p.Load.Errors)
		}
		return p
	}
	std := run(DeviceStandard, 0)
	adf64 := run(DeviceADF, 64)
	vpg1 := run(DeviceADFVPG, 1)

	drop := 1 - adf64.Load.FetchesPerSec/std.Load.FetchesPerSec
	if drop < 0.25 || drop > 0.60 {
		t.Errorf("ADF-64 throughput drop = %.0f%%, want ≈41%% (paper Table 1)", 100*drop)
	}
	if adf64.Load.ConnectMs.Mean() <= std.Load.ConnectMs.Mean() {
		t.Error("ADF-64 connect latency not above standard NIC")
	}
	if adf64.Load.FirstResponseMs.Mean() <= std.Load.FirstResponseMs.Mean() {
		t.Error("ADF-64 first-response latency not above standard NIC")
	}
	// Latency stays unexcessive (paper: unnoticeable for Internet use).
	if adf64.Load.ConnectMs.Mean() > 10 {
		t.Errorf("ADF-64 connect latency = %.2f ms, want modest (<10ms)", adf64.Load.ConnectMs.Mean())
	}
	if vpg1.Load.FetchesPerSec >= adf64.Load.FetchesPerSec &&
		vpg1.Load.FetchesPerSec >= std.Load.FetchesPerSec {
		t.Error("VPG HTTP throughput should drop vs standard NIC")
	}
	// Non-matching VPGs above the pair barely matter.
	vpg4 := run(DeviceADFVPG, 4)
	if vpg4.Load.FetchesPerSec < vpg1.Load.FetchesPerSec*0.85 {
		t.Errorf("4 VPGs (%.1f f/s) should be close to 1 VPG (%.1f f/s)",
			vpg4.Load.FetchesPerSec, vpg1.Load.FetchesPerSec)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a := bw(t, Scenario{Device: DeviceEFW, Depth: 32, FloodRatePPS: 6000, FloodAllowed: true, Seed: 7})
	b := bw(t, Scenario{Device: DeviceEFW, Depth: 32, FloodRatePPS: 6000, FloodAllowed: true, Seed: 7})
	if a.Iperf.BytesReceived != b.Iperf.BytesReceived || a.FloodSent != b.FloodSent {
		t.Errorf("same seed produced different results: %+v vs %+v", a.Iperf, b.Iperf)
	}
}

func TestUDPScenario(t *testing.T) {
	p := bw(t, Scenario{Device: DeviceStandard, UseUDP: true})
	if p.Iperf.Protocol != "udp" {
		t.Fatalf("protocol = %q", p.Iperf.Protocol)
	}
	if p.Mbps() < 90 {
		t.Errorf("UDP available bandwidth = %.1f, want >90", p.Mbps())
	}
	if p.Iperf.LossFraction > 0.05 {
		t.Errorf("UDP loss on clean path = %.2f", p.Iperf.LossFraction)
	}
}

func TestTestbedRejectsDuplicateHosts(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("dup", TargetIP, DeviceStandard, true); err == nil {
		t.Error("duplicate IP accepted")
	}
	if _, err := tb.AddHost("weird", measureIP(), Device(99), true); err == nil {
		t.Error("unknown device accepted")
	}
}

func measureIP() (ip [4]byte) { return [4]byte{10, 0, 0, 200} }

func TestTestbedDeviceWiring(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{TargetDevice: DeviceIPTables, ClientDevice: DeviceEFW})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Target.Firewall() == nil {
		t.Error("iptables target has no host firewall")
	}
	if tb.Client.Firewall() != nil {
		t.Error("EFW client has a host firewall")
	}
	if got, want := tb.Client.NIC().Profile(), nic.EFW(); got != want {
		t.Errorf("client card profile = %+v, want the EFW's %+v", got, want)
	}
	// InstallPolicy routes to the right enforcement point.
	rs, err := standardRuleSet(4, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.InstallPolicy(tb.Target, rs)
	if tb.Target.Firewall().RuleSet() != rs {
		t.Error("policy not installed into host firewall for iptables device")
	}
	if tb.Target.NIC().RuleSet() != nil {
		t.Error("policy leaked onto the standard NIC for iptables device")
	}
	tb.InstallPolicy(tb.Client, rs)
	if tb.Client.NIC().RuleSet() != rs {
		t.Error("policy not installed on EFW card")
	}
}

func TestRuleSetBuilders(t *testing.T) {
	rs, err := standardRuleSet(8, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 8 {
		t.Errorf("allowed rule set len = %d, want 8", rs.Len())
	}
	rs, err = standardRuleSet(8, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 13 {
		t.Errorf("deny rule set with trailing len = %d, want 13", rs.Len())
	}
	vrs, err := vpgRuleSet(3, TargetIP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vrs.Len() != 6 { // 3 VPG pairs
		t.Errorf("vpg rule set len = %d, want 6", vrs.Len())
	}
}

func TestSuppressFloodResponsesAblation(t *testing.T) {
	// ABL1: with victim responses suppressed, an allowed flood loads the
	// card half as much, so the same rate leaves more bandwidth.
	withResp := bw(t, Scenario{Device: DeviceEFW, Depth: 1, FloodRatePPS: 9_000, FloodAllowed: true})
	noResp := bw(t, Scenario{Device: DeviceEFW, Depth: 1, FloodRatePPS: 9_000, FloodAllowed: true,
		SuppressFloodResponses: true})
	if noResp.Mbps() <= withResp.Mbps() {
		t.Errorf("suppressing responses did not help: %.1f vs %.1f Mbps", noResp.Mbps(), withResp.Mbps())
	}
}

func TestTrailingRulesAreFreeAblation(t *testing.T) {
	// ABL3: rules after the action rule must not change bandwidth.
	base := bw(t, Scenario{Device: DeviceEFW, Depth: 32})
	trail := bw(t, Scenario{Device: DeviceEFW, Depth: 32, TrailingRules: 32})
	diff := base.Mbps() - trail.Mbps()
	if diff < 0 {
		diff = -diff
	}
	if diff > base.Mbps()*0.05 {
		t.Errorf("trailing rules changed bandwidth: %.1f vs %.1f Mbps", base.Mbps(), trail.Mbps())
	}
}

func TestEagerVPGDecryptAblation(t *testing.T) {
	// ABL2: eagerly decrypting makes padding VPGs expensive; the lazy
	// ADF keeps them nearly free.
	lazy := bw(t, Scenario{Device: DeviceADFVPG, Depth: 4})
	eager := bw(t, Scenario{Device: DeviceADFVPG, Depth: 4, EagerVPGDecrypt: true})
	if eager.Mbps() > lazy.Mbps() {
		t.Errorf("eager decrypt faster than lazy: %.1f vs %.1f Mbps", eager.Mbps(), lazy.Mbps())
	}
}

func TestNextGenCardSurvivesFloods(t *testing.T) {
	// EXT1: the paper's hoped-for device tolerates what kills the EFW.
	clean := bw(t, Scenario{Device: DeviceNextGen, Depth: 64})
	if clean.Mbps() < 90 {
		t.Errorf("NextGen at 64 rules = %.1f Mbps, want full bandwidth", clean.Mbps())
	}
	flood := bw(t, Scenario{Device: DeviceNextGen, Depth: 64, FloodRatePPS: 12_500, FloodAllowed: true})
	if flood.Mbps() < 70 {
		t.Errorf("NextGen under 12.5k pps flood = %.1f Mbps, want ≥70", flood.Mbps())
	}
	r, err := MinFloodRate(Scenario{Device: DeviceNextGen, Depth: 64, FloodAllowed: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		t.Errorf("NextGen suffered DoS at %.0f pps; want none within search bounds", r.RatePPS)
	}
}

func TestFloodKindTCPSYN(t *testing.T) {
	p := bw(t, Scenario{
		Device: DeviceEFW, Depth: 1,
		FloodRatePPS: 12_500, FloodAllowed: true,
		FloodKind: measure.FloodTCPSYN,
	})
	// SYN floods elicit RSTs instead of ICMP; the card still saturates.
	if p.Mbps() > 5 {
		t.Errorf("EFW under 12.5k SYN flood = %.1f Mbps, want ≈0", p.Mbps())
	}
	if p.TargetNIC.RxFrames == 0 {
		t.Error("no flood frames observed")
	}
}

func TestFragmentEvasionShape(t *testing.T) {
	// EXT3: fragmenting a denied flood claws back (most of) the factor
	// of two that denying it bought.
	deny, err := MinFloodRate(Scenario{Device: DeviceADF, Depth: 64, FloodAllowed: false})
	if err != nil {
		t.Fatal(err)
	}
	frag, err := MinFloodRate(Scenario{Device: DeviceADF, Depth: 64, FloodAllowed: false, FloodFragmented: true})
	if err != nil {
		t.Fatal(err)
	}
	if !deny.Found || !frag.Found {
		t.Fatalf("searches failed: %+v / %+v", deny, frag)
	}
	if frag.RatePPS >= deny.RatePPS*0.75 {
		t.Errorf("fragmented flood min rate %.0f not well below denied rate %.0f", frag.RatePPS, deny.RatePPS)
	}
}

func TestTestbedWithARP(t *testing.T) {
	tb, err := NewTestbed(TestbedOptions{UseARP: true, TargetDevice: DeviceEFW})
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 85 {
		t.Errorf("bandwidth with ARP resolution = %.1f Mbps", res.Mbps)
	}
	if tb.Client.ARPStats().RequestsSent == 0 {
		t.Error("no ARP requests despite UseARP")
	}
}
