package experiment

import (
	"fmt"

	"barbican/internal/core"
)

// ExtensionNextGen (EXT1) runs the experiment the paper's conclusion
// calls for: it subjects a hypothetical purpose-built filtering card
// (nic.NextGen) to the same validation as the EFW — bandwidth at full
// rule depth and flood tolerance — and shows that an order-of-magnitude
// capacity margin makes 100 Mbps floods harmless. The six cells
// (three metrics × two devices) are independent runs and fan out over
// the executor.
func ExtensionNextGen(cfg Config) (*Table, error) {
	devs := []core.Device{core.DeviceEFW, core.DeviceNextGen}
	metrics := []string{"bandwidth, 64 rules (Mbps)", "bandwidth under 12.5k pps flood (Mbps)", "minimum DoS flood rate"}
	cells, err := sweep(cfg, rect(len(metrics), len(devs)), func(r, c int) (string, error) {
		dev := devs[c]
		if r == 2 {
			res, err := core.MinFloodRate(core.Scenario{
				Device: dev, Depth: 64, FloodAllowed: true,
				Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
			})
			if err != nil {
				return "", err
			}
			cfg.account(res.Probes, res.SimSeconds, res.WallBusy)
			if !res.Found {
				return fmt.Sprintf("none up to %d pps", core.MaxSearchRatePPS), nil
			}
			return fmt.Sprintf("%.0f pps", res.RatePPS), nil
		}
		s := core.Scenario{Device: dev, Depth: 64, Duration: cfg.bandwidthDuration(), Seed: cfg.Seed}
		label := fmt.Sprintf("%s_depth-64", dev)
		if r == 1 {
			s.FloodRatePPS, s.FloodAllowed = 12_500, true
			label += "_rate-12500"
		}
		p, err := bandwidthRuns.point(cfg, "ext1", label, s)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.1f", p.Mbps()), nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Extension EXT1: validating a hypothetical flood-tolerant card (64-rule policy)",
		Columns: []string{"Metric", devs[0].String(), devs[1].String()},
	}
	for r, m := range metrics {
		t.Rows = append(t.Rows, append([]string{m}, cells[r]...))
	}
	return t, nil
}
