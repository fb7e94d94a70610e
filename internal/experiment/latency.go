package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/runner"
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

	type task struct {
		depth int
		dev   core.Device
	}
	var tasks []task
	for _, depth := range depths {
		for _, dev := range devices {
			tasks = append(tasks, task{depth: depth, dev: dev})
		}
	}

	cells, err := runner.Map(cfg.pool(), len(tasks), func(i int) (string, error) {
		tk := tasks[i]
		s := core.Scenario{Device: tk.dev, Depth: tk.depth, FloodAllowed: true, Seed: cfg.Seed}
		if tk.dev == core.DeviceStandard {
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
			return "", fmt.Errorf("latency %v depth %d: no echo replies", tk.dev, tk.depth)
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
	for di, depth := range depths {
		row := []string{fmt.Sprint(depth)}
		row = append(row, cells[di*len(devices):(di+1)*len(devices)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
