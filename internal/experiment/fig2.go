package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/obs/profile"
	"barbican/internal/runner"
)

// Fig2Depths are the rule-set depths of Figure 2's x axis.
var Fig2Depths = []int{1, 2, 4, 8, 16, 24, 32, 48, 64}

// Fig2VPGDepths are the VPG counts of Figure 2's VPG series.
var Fig2VPGDepths = []int{1, 2, 3, 4}

// Fig2 reproduces Figure 2: available bandwidth as rules are added to
// the rule-set, for the EFW, ADF, ADF with VPGs, and iptables. Every
// (device, depth) point is independent, so the sweep fans out over the
// executor; points land back in their series in declaration order.
func Fig2(cfg Config) (*Figure, error) {
	depths := Fig2Depths
	vpgDepths := Fig2VPGDepths
	if cfg.Quick {
		depths = []int{1, 16, 64}
		vpgDepths = []int{1, 4}
	}

	devs := []core.Device{core.DeviceEFW, core.DeviceADF, core.DeviceIPTables}
	type task struct {
		series int
		dev    core.Device
		depth  int
	}
	var tasks []task
	for si, dev := range devs {
		for _, d := range depths {
			tasks = append(tasks, task{series: si, dev: dev, depth: d})
		}
	}
	for _, d := range vpgDepths {
		tasks = append(tasks, task{series: len(devs), dev: core.DeviceADFVPG, depth: d})
	}

	// Each point carries its cost profile back so the experiment-level
	// merge happens in task declaration order, independent of which
	// worker finished first.
	type result struct {
		point Point
		prof  *profile.Data
	}
	results, err := runner.Map(cfg.pool(), len(tasks), func(i int) (result, error) {
		t := tasks[i]
		label := fmt.Sprintf("%s_depth-%d", t.dev, t.depth)
		p, err := bandwidthRuns.point(cfg, "fig2", label, core.Scenario{
			Device: t.dev, Depth: t.depth,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return result{}, err
		}
		return result{point: Point{X: float64(t.depth), Y: p.Mbps()}, prof: p.CostProfile}, nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.ProfileDir != "" {
		parts := make([]*profile.Data, 0, len(results))
		for _, r := range results {
			if r.prof != nil {
				parts = append(parts, r.prof)
			}
		}
		if err := writeMergedCostProfile(cfg, "fig2", parts); err != nil {
			return nil, err
		}
	}

	fig := &Figure{
		Title:  "Figure 2: Available Bandwidth as Rules Are Added to the Rule-Set",
		XLabel: "rules traversed",
		YLabel: "available bandwidth (Mbps)",
	}
	for _, dev := range devs {
		fig.Series = append(fig.Series, Series{Label: dev.String()})
	}
	fig.Series = append(fig.Series, Series{Label: core.DeviceADFVPG.String()})
	for i, t := range tasks {
		s := &fig.Series[t.series]
		s.Points = append(s.Points, results[i].point)
	}
	return fig, nil
}
