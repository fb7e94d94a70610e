package experiment

import (
	"fmt"

	"barbican/internal/core"
)

// depthSeries is one curve of a bandwidth-vs-depth figure: a device and
// the rule-set depths it is measured at.
type depthSeries struct {
	dev    core.Device
	depths []int
}

// Fig2 reproduces Figure 2: available bandwidth as rules are added to
// the rule-set, for the EFW, ADF, ADF with VPGs, and iptables. The VPG
// series counts VPGs rather than rules, so it has its own depth list.
func Fig2(cfg Config) (*Figure, error) {
	depths := []int{1, 2, 4, 8, 16, 24, 32, 48, 64}
	vpgDepths := []int{1, 2, 3, 4}
	if cfg.Quick {
		depths = []int{1, 16, 64}
		vpgDepths = []int{1, 4}
	}
	return bandwidthVsDepth(cfg, "fig2",
		"Figure 2: Available Bandwidth as Rules Are Added to the Rule-Set",
		[]depthSeries{
			{core.DeviceEFW, depths},
			{core.DeviceADF, depths},
			{core.DeviceIPTables, depths},
			{core.DeviceADFVPG, vpgDepths},
		})
}

// Fig2NextGen reruns the Figure 2 bandwidth-vs-depth sweep with the
// NextGen profile alongside EFW and ADF. The headline: the linear cards'
// depth cliff goes flat — NextGen's per-packet cost is a compiled lookup
// (or a cache hit), so available bandwidth stays at wire speed at any
// rule-set depth.
func Fig2NextGen(cfg Config) (*Figure, error) {
	// The x axis extends past the paper's 64 rules: the compiled
	// matcher's claim is depth independence, so the sweep keeps doubling
	// until a linear card's walk dominates its cost entirely.
	depths := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if cfg.Quick {
		depths = []int{1, 64, 512}
	}
	return bandwidthVsDepth(cfg, "fig2ng",
		"Figure 2 (NextGen): Available Bandwidth vs Rule-Set Depth, Compiled Matcher",
		[]depthSeries{
			{core.DeviceEFW, depths},
			{core.DeviceADF, depths},
			{core.DeviceNextGen, depths},
		})
}

// bandwidthVsDepth measures available bandwidth at every (device, depth)
// point of series, one series per device. Every point is independent,
// so the sweep fans out over the executor; points land back in their
// series in declaration order. exp names the per-run artifacts
// (<exp>/<device>_depth-<d>).
func bandwidthVsDepth(cfg Config, exp, title string, series []depthSeries) (*Figure, error) {
	cols := make([]int, len(series))
	for r, s := range series {
		cols[r] = len(s.depths)
	}
	points, err := sweep(cfg, cols, func(r, c int) (Point, error) {
		dev, depth := series[r].dev, series[r].depths[c]
		p, err := bandwidthRuns.point(cfg, exp, fmt.Sprintf("%s_depth-%d", dev, depth), core.Scenario{
			Device: dev, Depth: depth,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return Point{}, err
		}
		return Point{X: float64(depth), Y: p.Mbps()}, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  title,
		XLabel: "rules traversed",
		YLabel: "available bandwidth (Mbps)",
	}
	for r, s := range series {
		fig.Series = append(fig.Series, Series{Label: s.dev.String(), Points: points[r]})
	}
	return fig, nil
}
