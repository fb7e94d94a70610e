package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// Table1 reproduces Table 1: HTTP performance of an Apache-style
// webserver protected by an ADF, against a standard NIC baseline, with
// standard rules at increasing depths and with VPG rules. Each column
// is one independent HTTP load run and fans out over the executor.
func Table1(cfg Config) (*Table, error) {
	depths := []int{1, 8, 16, 32, 64} // standard-rule depths
	vpgDepths := []int{1, 2, 3, 4}    // VPG counts
	if cfg.Quick {
		depths = []int{1, 64}
		vpgDepths = []int{1}
	}

	type task struct {
		name  string
		dev   core.Device
		depth int
	}
	tasks := []task{{name: "Standard NIC", dev: core.DeviceStandard, depth: 0}}
	for _, d := range depths {
		tasks = append(tasks, task{name: fmt.Sprintf("ADF %d", d), dev: core.DeviceADF, depth: d})
	}
	for _, v := range vpgDepths {
		tasks = append(tasks, task{name: fmt.Sprintf("VPG %d", v), dev: core.DeviceADFVPG, depth: v})
	}

	points, err := runner.Map(cfg.pool(), len(tasks), func(i int) (core.HTTPPoint, error) {
		t := tasks[i]
		p, err := core.RunHTTP(core.Scenario{
			Device: t.dev, Depth: t.depth,
			Duration: cfg.httpDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return core.HTTPPoint{}, fmt.Errorf("table1 %s: %w", t.name, err)
		}
		cfg.account(1, p.SimSeconds, p.WallBusy)
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Table 1: HTTP Performance of Apache Webserver Protected by an ADF",
		Columns: []string{"Experiment"},
	}
	for _, c := range tasks {
		t.Columns = append(t.Columns, c.name)
	}
	fetches := []string{"HTTP Fetches/s"}
	connect := []string{"ms/connect"}
	first := []string{"ms/first-response"}
	for _, p := range points {
		fetches = append(fetches, fmt.Sprintf("%.1f", p.Load.FetchesPerSec))
		connect = append(connect, fmt.Sprintf("%.2f", p.Load.ConnectMs.Mean()))
		first = append(first, fmt.Sprintf("%.2f", p.Load.FirstResponseMs.Mean()))
	}
	t.Rows = [][]string{fetches, connect, first}
	return t, nil
}
