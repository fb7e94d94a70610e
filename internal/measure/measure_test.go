package measure_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"barbican/internal/apps"
	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/packet"
)

func testbed(t *testing.T, opts core.TestbedOptions) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestUDPIperfCleanPath(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	res, err := measure.RunUDPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 90 || res.Mbps > 100 {
		t.Errorf("UDP goodput = %.1f Mbps, want ≈95", res.Mbps)
	}
	if res.LossFraction > 0.05 {
		t.Errorf("loss = %.2f on a clean path", res.LossFraction)
	}
	if res.DatagramsReceived == 0 || res.DatagramsSent < res.DatagramsReceived {
		t.Errorf("datagram counts: %d sent, %d received", res.DatagramsSent, res.DatagramsReceived)
	}
}

func TestUDPIperfRespectsOfferedRate(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	res, err := measure.RunUDPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration:    time.Second,
		OfferedMbps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mbps-10) > 1 {
		t.Errorf("goodput = %.1f Mbps, want ≈10 (offered rate)", res.Mbps)
	}
}

func TestTCPIperfCleanPath(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 85 {
		t.Errorf("TCP goodput = %.1f Mbps, want >85", res.Mbps)
	}
}

func TestIperfResultString(t *testing.T) {
	r := measure.IperfResult{Protocol: "udp", Duration: time.Second, Mbps: 42, DatagramsSent: 10, DatagramsReceived: 9, LossFraction: 0.1}
	if s := r.String(); s == "" {
		t.Error("empty render")
	}
	r2 := measure.IperfResult{Protocol: "tcp", Duration: time.Second, Mbps: 42}
	if s := r2.String(); s == "" {
		t.Error("empty render")
	}
}

func TestFlooderRateAccuracy(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
		RatePPS: 5000,
	})
	f.Start()
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	rate := float64(f.Sent()) / 2
	if math.Abs(rate-5000) > 250 {
		t.Errorf("flood rate = %.0f pps, want ≈5000", rate)
	}
}

func TestFlooderDurationBound(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
		RatePPS:  1000,
		Duration: 500 * time.Millisecond,
	})
	f.Start()
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sent := f.Sent()
	if sent < 400 || sent > 600 {
		t.Errorf("bounded flood sent %d packets, want ≈500", sent)
	}
}

func TestFlooderSpoofedSourcesElicitNoHandshake(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
		Kind:         measure.FloodTCPSYN,
		RatePPS:      1000,
		Duration:     time.Second,
		SpoofSources: []packet.IP{packet.MustIP("192.0.2.1"), packet.MustIP("192.0.2.2")},
	})
	f.Start()
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The victim responds toward the spoofed sources (RSTs), which do
	// not exist on this network.
	if tb.Target.Stats().RSTsSent == 0 {
		t.Error("victim sent no RSTs for a SYN flood")
	}
}

func TestHTTPLoadReportsMetrics(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	if _, err := apps.NewHTTPServer(tb.Target, apps.HTTPServerConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := measure.RunHTTPLoad(tb.Kernel, tb.Client, tb.Target, measure.HTTPLoadConfig{
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Fetches == 0 || res.FetchesPerSec <= 0 {
		t.Fatalf("no fetches: %+v", res)
	}
	if res.ConnectMs.N() != res.Fetches || res.FirstResponseMs.N() != res.Fetches {
		t.Errorf("latency sample counts %d/%d vs fetches %d",
			res.ConnectMs.N(), res.FirstResponseMs.N(), res.Fetches)
	}
	if res.ConnectMs.Mean() <= 0 || res.FirstResponseMs.Mean() <= res.ConnectMs.Mean() {
		t.Errorf("latencies: connect=%.3f first=%.3f", res.ConnectMs.Mean(), res.FirstResponseMs.Mean())
	}
}

func TestSampleStatistics(t *testing.T) {
	var s measure.Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Errorf("mean = %v (n=%d), want 5 (8)", s.Mean(), s.N())
	}
	if math.Abs(s.Stddev()-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Property: merging two samples equals adding all observations to one.
func TestSampleMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var all, sa, sb measure.Sample
		for _, v := range a {
			clean := sanitize(v)
			all.Add(clean)
			sa.Add(clean)
		}
		for _, v := range b {
			clean := sanitize(v)
			all.Add(clean)
			sb.Add(clean)
		}
		sa.Merge(sb)
		return sa.N() == all.N() &&
			math.Abs(sa.Mean()-all.Mean()) < 1e-6 &&
			sa.Min() == all.Min() && sa.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	// Keep magnitudes small so float error bounds hold.
	return math.Mod(v, 1e6)
}

func TestThroughputConfigDefaults(t *testing.T) {
	res, err := measure.ZeroLossThroughput(measure.ThroughputConfig{}, 100,
		func(rate float64) (uint64, uint64, error) {
			n := uint64(rate * 2)
			return n, n, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameSize != 1518 {
		t.Errorf("default frame size = %d", res.FrameSize)
	}
	if !res.LineRateLimited || res.FramesPerSec != 100 {
		t.Errorf("lossless device result = %+v", res)
	}
}

func TestZeroLossThroughputPropagatesErrors(t *testing.T) {
	wantErr := errSentinel{}
	_, err := measure.ZeroLossThroughput(measure.ThroughputConfig{}, 100,
		func(rate float64) (uint64, uint64, error) { return 0, 0, wantErr })
	if err == nil {
		t.Error("trial error swallowed")
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "trial failed" }

func TestFragmentedFloodGeneratesTwoFramesPerPacket(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
		RatePPS:      1000,
		Duration:     time.Second,
		PayloadBytes: 24,
		Fragment:     true,
		DstPort:      7,
	})
	f.Start()
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Each flood packet becomes two wire frames; the victim sees both as
	// fragments and reassembles none to a socket (port 7 closed) — but
	// reassembly *does* complete, so ICMP responses still flow for the
	// allowed flood.
	st := tb.Target.Stats()
	if st.RxFragments < 1900 {
		t.Errorf("RxFragments = %d, want ≈2000", st.RxFragments)
	}
	if st.RxReassembled < 950 {
		t.Errorf("RxReassembled = %d, want ≈1000", st.RxReassembled)
	}
}
