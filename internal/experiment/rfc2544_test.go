package experiment

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/measure"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

func rfcPoint(t *testing.T, device core.Device, depth, frameSize int) measure.ThroughputResult {
	t.Helper()
	res, err := rfc2544Point(Config{Quick: true}, device, depth, frameSize)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRFC2544StandardNICIsLineRate(t *testing.T) {
	for _, size := range []int{64, 1518} {
		res := rfcPoint(t, core.DeviceStandard, 0, size)
		if !res.LineRateLimited {
			t.Errorf("standard NIC at %dB not line-rate limited: %+v", size, res)
		}
	}
	// Medium maxima: ≈148,810 fps at 64B and ≈8,127 fps at 1518B.
	small := rfcPoint(t, core.DeviceStandard, 0, 64)
	if small.FramesPerSec < 140_000 {
		t.Errorf("64B line rate = %.0f fps, want ≈148,810", small.FramesPerSec)
	}
	big := rfcPoint(t, core.DeviceStandard, 0, 1518)
	if big.FramesPerSec < 8_000 || big.FramesPerSec > 8_300 {
		t.Errorf("1518B line rate = %.0f fps, want ≈8,127", big.FramesPerSec)
	}
}

func TestRFC2544EFWSmallFrameCeiling(t *testing.T) {
	// The paper's §4.1 argument: a firewall that carries full bandwidth
	// at 1518B frames may be far below the medium's small-frame rate.
	big := rfcPoint(t, core.DeviceEFW, 1, 1518)
	if !big.LineRateLimited {
		t.Errorf("EFW-1 at 1518B should reach line rate: %+v", big)
	}
	small := rfcPoint(t, core.DeviceEFW, 1, 64)
	if small.LineRateLimited {
		t.Error("EFW-1 at 64B reported line rate; the card must be the bottleneck")
	}
	// One-way ingress capacity at 1 rule ≈ 24,600 fps.
	if small.FramesPerSec < 20_000 || small.FramesPerSec > 28_000 {
		t.Errorf("EFW-1 64B ceiling = %.0f fps, want ≈24,600", small.FramesPerSec)
	}
}

func TestRFC2544DepthLowersCeiling(t *testing.T) {
	shallow := rfcPoint(t, core.DeviceEFW, 1, 64)
	deep := rfcPoint(t, core.DeviceEFW, 64, 64)
	if deep.FramesPerSec >= shallow.FramesPerSec {
		t.Errorf("64-rule ceiling (%.0f) not below 1-rule ceiling (%.0f)",
			deep.FramesPerSec, shallow.FramesPerSec)
	}
}

func TestAppendixRFC2544Table(t *testing.T) {
	tab, err := AppendixRFC2544(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	for _, want := range []string{"RFC 2544", "Frame size", "64", "1518", "line rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Every row, the footer included, has one cell per column, so the
	// CSV export parses at any table width.
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Errorf("row %d has %d cells, want %d: %q", i, len(row), len(tab.Columns), row)
		}
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := csv.NewReader(&buf).ReadAll(); err != nil {
		t.Errorf("rfc2544 CSV does not parse: %v", err)
	}
}

func TestAppendixLatencyTable(t *testing.T) {
	tab, err := AppendixLatency(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Columns) != 5 {
		t.Fatalf("table shape = %dx%d", len(tab.Rows), len(tab.Columns))
	}
	if !strings.Contains(tab.Render(), "round-trip") {
		t.Error("render missing title")
	}
}

func TestZeroLossThroughputSyntheticDevice(t *testing.T) {
	// A synthetic device that drops everything above 5,000 fps: the
	// search must find ≈5,000.
	trial := func(rate float64) (uint64, uint64, error) {
		sent := uint64(rate * 2)
		received := sent
		if rate > 5000 {
			received = uint64(5000 * 2)
		}
		return sent, received, nil
	}
	res, err := measure.ZeroLossThroughput(measure.ThroughputConfig{FrameSize: 64}, 20000, trial)
	if err != nil {
		t.Fatal(err)
	}
	if res.LineRateLimited {
		t.Error("synthetic bottleneck reported line rate")
	}
	if res.FramesPerSec < 4700 || res.FramesPerSec > 5100 {
		t.Errorf("found %.0f fps, want ≈5000", res.FramesPerSec)
	}
}

// Keep the helper imports honest: rfc2544Point must build fresh pairs.
func TestHostThroughputTrialIndependence(t *testing.T) {
	builds := 0
	cfg := measure.ThroughputConfig{FrameSize: 256, TrialDuration: 200 * time.Millisecond}
	trial := measure.HostThroughputTrial(cfg, func() (*sim.Kernel, *stack.Host, *stack.Host, error) {
		builds++
		tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW})
		if err != nil {
			return nil, nil, nil, err
		}
		rs, err := fw.DepthRuleSet(8, fw.AllowAllRule(), fw.Deny)
		if err != nil {
			return nil, nil, nil, err
		}
		tb.InstallPolicy(tb.Target, rs)
		return tb.Kernel, tb.Client, tb.Target, nil
	})
	if _, err := measure.ZeroLossThroughput(cfg, link.MaxFrameRate(238, link.Rate100Mbps), trial); err != nil {
		t.Fatal(err)
	}
	if builds < 2 {
		t.Errorf("only %d testbeds built; trials must be independent", builds)
	}
}
