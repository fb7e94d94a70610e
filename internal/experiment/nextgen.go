package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/obs/profile"
	"barbican/internal/runner"
)

// Fig2NGDepths extends Figure 2's x axis past the paper's 64 rules: the
// compiled matcher's claim is depth independence, so the sweep keeps
// doubling until a linear card's walk dominates its cost entirely.
var Fig2NGDepths = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig2NGDevices are the cards compared: the paper's two filtering cards
// against the conclusion's hypothetical flood-tolerant card, now modeled
// with a compiled classifier and per-flow verdict cache.
var Fig2NGDevices = []core.Device{core.DeviceEFW, core.DeviceADF, core.DeviceNextGen}

// Fig2NextGen reruns the Figure 2 bandwidth-vs-depth sweep with the
// NextGen profile alongside EFW and ADF. The headline: the linear cards'
// depth cliff goes flat — NextGen's per-packet cost is a compiled lookup
// (or a cache hit), so available bandwidth stays at wire speed at any
// rule-set depth. Same fan-out discipline as Fig2: every (device, depth)
// point is an independent task; points land back in declaration order.
func Fig2NextGen(cfg Config) (*Figure, error) {
	depths := Fig2NGDepths
	if cfg.Quick {
		depths = []int{1, 64, 512}
	}

	devs := Fig2NGDevices
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

	type result struct {
		point Point
		prof  *profile.Data
	}
	results, err := runner.Map(cfg.pool(), len(tasks), func(i int) (result, error) {
		t := tasks[i]
		label := fmt.Sprintf("%s_depth-%d", t.dev, t.depth)
		p, err := bandwidthRuns.point(cfg, "fig2ng", label, core.Scenario{
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
		if err := writeMergedCostProfile(cfg, "fig2ng", parts); err != nil {
			return nil, err
		}
	}

	fig := &Figure{
		Title:  "Figure 2 (NextGen): Available Bandwidth vs Rule-Set Depth, Compiled Matcher",
		XLabel: "rules traversed",
		YLabel: "available bandwidth (Mbps)",
	}
	for _, dev := range devs {
		fig.Series = append(fig.Series, Series{Label: dev.String()})
	}
	for i, t := range tasks {
		fig.Series[t.series].Points = append(fig.Series[t.series].Points, results[i].point)
	}
	return fig, nil
}

// Fig3NGDepths are the rule depths of the NextGen flood-tolerance sweep.
var Fig3NGDepths = []int{1, 8, 16, 32, 64, 128, 256, 512}

// Fig3NGClasses compares flood tolerance on the paper's Allow class —
// the one the authors could measure without wedging cards — across the
// two linear cards and the compiled NextGen card.
var Fig3NGClasses = []Fig3bClass{
	{Device: core.DeviceEFW, Allowed: true},
	{Device: core.DeviceADF, Allowed: true},
	{Device: core.DeviceNextGen, Allowed: true},
}

// Fig3NextGen reruns the Figure 3(b) minimum-DoS-flood-rate sweep with
// the NextGen card alongside EFW and ADF. The linear cards' tolerance
// decays with depth (each flood packet walks the whole rule-set); the
// NextGen card's per-packet cost is flat and low enough that no rate
// within the search bounds causes denial of service — those points carry
// the "no DoS found" note instead of a rate.
//
// As in Fig3b, each class is one executor task and depths run
// sequentially inside it so each search warm-starts from the neighboring
// depth's threshold; the probe sequence is identical at any worker count.
func Fig3NextGen(cfg Config) (*Figure, error) {
	depths := Fig3NGDepths
	classes := Fig3NGClasses
	if cfg.Quick {
		depths = []int{1, 512}
		classes = []Fig3bClass{
			{Device: core.DeviceEFW, Allowed: true},
			{Device: core.DeviceNextGen, Allowed: true},
		}
	}

	series, err := runner.Map(cfg.pool(), len(classes), func(ci int) (Series, error) {
		class := classes[ci]
		s := Series{Label: class.Label()}
		hint := 0.0
		for _, d := range depths {
			r, err := core.MinFloodRateFrom(core.Scenario{
				Device: class.Device, Depth: d, FloodAllowed: class.Allowed,
				Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
			}, hint)
			if err != nil {
				return Series{}, err
			}
			cfg.account(r.Probes, r.SimSeconds, r.WallBusy)
			pt := Point{X: float64(d)}
			switch {
			case !r.Found:
				pt.Note = "no DoS found"
				hint = 0
			case r.LockedUp:
				pt.Y = r.RatePPS
				pt.Note = "LOCKUP"
				hint = r.RatePPS
			default:
				pt.Y = r.RatePPS
				hint = r.RatePPS
			}
			s.Points = append(s.Points, pt)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Figure 3(b) (NextGen): Minimum DoS Flood Rate vs Rule-Set Depth, Compiled Matcher",
		XLabel: "rules traversed before action",
		YLabel: "minimum flood rate (packets/s)",
		Series: series,
	}
	return fig, nil
}
