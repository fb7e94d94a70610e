package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/measure"
)

// AppendixLatency (APX2) measures per-packet round-trip latency through
// each device as rule depth grows — the mechanism behind Table 1's
// ms/connect gradient, isolated from TCP. The paper argues the added
// latency "would hardly be noticeable for Internet service"; this table
// quantifies it. Every (depth, device) cell is an independent ping run
// and fans out over the executor.
func AppendixLatency(cfg Config) (*Table, error) {
	depths := []int{1, 8, 16, 32, 64}
	if cfg.Quick {
		depths = []int{1, 64}
	}
	devices := []core.Device{core.DeviceStandard, core.DeviceIPTables, core.DeviceEFW, core.DeviceADF}

	cells, err := sweep(cfg, rect(len(depths), len(devices)), func(r, c int) (string, error) {
		dev, depth := devices[c], depths[r]
		s := core.Scenario{Device: dev, Depth: depth, FloodAllowed: true, Seed: cfg.Seed}
		if dev == core.DeviceStandard {
			s.Depth = 0 // the unfiltered control
		}
		tb, err := core.BuildTestbed(s)
		if err != nil {
			return "", err
		}
		res, err := measure.RunPingRTT(tb.Kernel, tb.Client, tb.Target)
		if err != nil {
			return "", err
		}
		cfg.account(1, tb.Kernel.Now().Seconds(), tb.Kernel.WallBusy())
		if res.Received == 0 {
			return "", fmt.Errorf("latency %v depth %d: no echo replies", dev, depth)
		}
		return fmt.Sprintf("%.3f±%.3f", res.RTTms.Mean(), res.RTTms.Stderr()), nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Appendix APX2: ICMP round-trip time (ms, mean±stderr) vs rule-set depth",
		Columns: []string{"Rules"},
	}
	for _, d := range devices {
		t.Columns = append(t.Columns, d.String())
	}
	for r, depth := range depths {
		t.Rows = append(t.Rows, append([]string{fmt.Sprint(depth)}, cells[r]...))
	}
	return t, nil
}
