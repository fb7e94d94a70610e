package measure_test

import (
	"testing"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/measure"
)

func TestPingRTTCleanPath(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{})
	res, err := measure.RunPingRTT(tb.Kernel, tb.Client, tb.Target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != measure.PingCount || res.Received != measure.PingCount {
		t.Fatalf("sent/received = %d/%d", res.Sent, res.Received)
	}
	// Two switch hops each way on idle 100 Mbps links: well under 1 ms.
	if res.RTTms.Mean() <= 0 || res.RTTms.Mean() > 1 {
		t.Errorf("mean RTT = %.3f ms", res.RTTms.Mean())
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestPingRTTGrowsWithRuleDepth(t *testing.T) {
	rtt := func(depth int) float64 {
		tb := testbed(t, core.TestbedOptions{TargetDevice: core.DeviceEFW})
		rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
		if err != nil {
			t.Fatal(err)
		}
		tb.InstallPolicy(tb.Target, rs)
		res, err := measure.RunPingRTT(tb.Kernel, tb.Client, tb.Target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Received != res.Sent {
			t.Fatalf("loss on idle path: %s", res)
		}
		return res.RTTms.Mean()
	}
	shallow, deep := rtt(1), rtt(64)
	if deep <= shallow {
		t.Errorf("RTT did not grow with depth: %.3f vs %.3f ms", shallow, deep)
	}
}

func TestPingRTTCountsLoss(t *testing.T) {
	tb := testbed(t, core.TestbedOptions{TargetDevice: core.DeviceEFW})
	// Deny ICMP: all probes lost.
	rs, err := fw.NewRuleSet(fw.Deny)
	if err != nil {
		t.Fatal(err)
	}
	tb.InstallPolicy(tb.Target, rs)
	res, err := measure.RunPingRTT(tb.Kernel, tb.Client, tb.Target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 0 || res.Sent != measure.PingCount {
		t.Errorf("result = %s", res)
	}
}
