package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// ExtensionNextGen (EXT1) runs the experiment the paper's conclusion
// calls for: it subjects a hypothetical purpose-built filtering card
// (nic.NextGen) to the same validation as the EFW — bandwidth at full
// rule depth and flood tolerance — and shows that an order-of-magnitude
// capacity margin makes 100 Mbps floods harmless. The six cells
// (three metrics × two devices) are independent runs and fan out over
// the executor.
func ExtensionNextGen(cfg Config) (*Table, error) {
	bandwidth := func(dev core.Device) func() (string, error) {
		return func() (string, error) {
			p, err := runBandwidth(cfg, "ext1", fmt.Sprintf("%s_depth-64", dev), core.Scenario{
				Device: dev, Depth: 64,
				Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.1f", p.Mbps()), nil
		}
	}
	flooded := func(dev core.Device) func() (string, error) {
		return func() (string, error) {
			p, err := runBandwidth(cfg, "ext1", fmt.Sprintf("%s_depth-64_rate-12500", dev), core.Scenario{
				Device: dev, Depth: 64,
				FloodRatePPS: 12_500, FloodAllowed: true,
				Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.1f", p.Mbps()), nil
		}
	}
	minFlood := func(dev core.Device) func() (string, error) {
		return func() (string, error) {
			r, err := core.MinFloodRate(core.Scenario{
				Device: dev, Depth: 64, FloodAllowed: true,
				Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
			})
			if err != nil {
				return "", err
			}
			cfg.account(r.Probes, r.SimSeconds, r.WallBusy)
			if !r.Found {
				return fmt.Sprintf("none up to %d pps", core.MaxSearchRatePPS), nil
			}
			return fmt.Sprintf("%.0f pps", r.RatePPS), nil
		}
	}

	cells, err := runner.Funcs(cfg.pool(),
		bandwidth(core.DeviceEFW), bandwidth(core.DeviceNextGen),
		flooded(core.DeviceEFW), flooded(core.DeviceNextGen),
		minFlood(core.DeviceEFW), minFlood(core.DeviceNextGen),
	)
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Extension EXT1: validating a hypothetical flood-tolerant card (64-rule policy)",
		Columns: []string{"Metric", core.DeviceEFW.String(), core.DeviceNextGen.String()},
		Rows: [][]string{
			{"bandwidth, 64 rules (Mbps)", cells[0], cells[1]},
			{"bandwidth under 12.5k pps flood (Mbps)", cells[2], cells[3]},
			{"minimum DoS flood rate", cells[4], cells[5]},
		},
	}, nil
}
