package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// Fig3a reproduces Figure 3(a): available bandwidth during a packet
// flood with a single-rule rule-set, for no firewall, iptables, EFW,
// ADF, and ADF with a VPG. Every (device, rate) point is independent
// and fans out over the executor.
func Fig3a(cfg Config) (*Figure, error) {
	rates := []float64{0, 2000, 4000, 6000, 8000, 10000, 12500}
	if cfg.Quick {
		rates = []float64{0, 8000, 12500}
	}

	devs := []core.Device{
		core.DeviceStandard, core.DeviceIPTables, core.DeviceEFW, core.DeviceADF, core.DeviceADFVPG,
	}
	type task struct {
		series int
		label  string
		dev    core.Device
		depth  int
		rate   float64
	}
	var tasks []task
	for si, dev := range devs {
		depth := 1
		label := dev.String()
		if dev == core.DeviceStandard {
			depth = 0 // "No Firewall"
			label = "No Firewall"
		}
		for _, rate := range rates {
			tasks = append(tasks, task{series: si, label: label, dev: dev, depth: depth, rate: rate})
		}
	}

	points, err := runner.Map(cfg.pool(), len(tasks), func(i int) (Point, error) {
		t := tasks[i]
		runLabel := fmt.Sprintf("%s_rate-%.0f", t.label, t.rate)
		p, err := bandwidthRuns.point(cfg, "fig3a", runLabel, core.Scenario{
			Device: t.dev, Depth: t.depth,
			FloodRatePPS: t.rate, FloodAllowed: true,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return Point{}, err
		}
		pt := Point{X: t.rate, Y: p.Mbps()}
		if p.TargetLocked {
			pt.Note = "LOCKUP"
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Figure 3(a): Available Bandwidth During Packet Flood (single-rule rule-set)",
		XLabel: "flood rate (packets/s)",
		YLabel: "available bandwidth (Mbps)",
	}
	for _, dev := range devs {
		label := dev.String()
		if dev == core.DeviceStandard {
			label = "No Firewall"
		}
		fig.Series = append(fig.Series, Series{Label: label})
	}
	for i, t := range tasks {
		fig.Series[t.series].Points = append(fig.Series[t.series].Points, points[i])
	}
	return fig, nil
}

// floodClass names one series of a minimum-DoS-rate figure: a device
// and whether the policy allows or denies the flood.
type floodClass struct {
	Device  core.Device
	Allowed bool
}

// Label renders the class as the paper labels it.
func (c floodClass) Label() string {
	mode := "Deny"
	if c.Allowed {
		mode = "Allow"
	}
	return fmt.Sprintf("%s (%s)", c.Device, mode)
}

// Fig3b reproduces Figure 3(b): the minimum flood rate required to cause
// denial of service as rule-set depth increases, with the flood packets
// allowed or denied by the policy.
func Fig3b(cfg Config) (*Figure, error) {
	depths := []int{1, 8, 16, 32, 64}
	// The paper's series: the EFW (Deny) series is included so the run
	// documents the lockup that prevented the authors from capturing it.
	classes := []floodClass{
		{Device: core.DeviceEFW, Allowed: true},
		{Device: core.DeviceADF, Allowed: true},
		{Device: core.DeviceADF, Allowed: false},
		{Device: core.DeviceEFW, Allowed: false},
	}
	if cfg.Quick {
		depths = []int{1, 64}
		classes = []floodClass{
			{Device: core.DeviceEFW, Allowed: true},
			{Device: core.DeviceADF, Allowed: false},
		}
	}
	return minFloodRateVsDepth(cfg,
		"Figure 3(b): Minimum Denial-of-Service Flood Rate vs Rule-Set Depth",
		depths, classes)
}

// Fig3NextGen reruns the Figure 3(b) minimum-DoS-flood-rate sweep with
// the NextGen card alongside EFW and ADF. The linear cards' tolerance
// decays with depth (each flood packet walks the whole rule-set); the
// NextGen card's per-packet cost is flat and low enough that no rate
// within the search bounds causes denial of service — those points carry
// the "no DoS found" note instead of a rate.
func Fig3NextGen(cfg Config) (*Figure, error) {
	depths := []int{1, 8, 16, 32, 64, 128, 256, 512}
	// Flood tolerance is compared on the paper's Allow class — the one
	// the authors could measure without wedging cards — across the two
	// linear cards and the compiled NextGen card.
	classes := []floodClass{
		{Device: core.DeviceEFW, Allowed: true},
		{Device: core.DeviceADF, Allowed: true},
		{Device: core.DeviceNextGen, Allowed: true},
	}
	if cfg.Quick {
		depths = []int{1, 512}
		classes = []floodClass{
			{Device: core.DeviceEFW, Allowed: true},
			{Device: core.DeviceNextGen, Allowed: true},
		}
	}
	return minFloodRateVsDepth(cfg,
		"Figure 3(b) (NextGen): Minimum DoS Flood Rate vs Rule-Set Depth, Compiled Matcher",
		depths, classes)
}

// minFloodRateVsDepth searches the minimum DoS flood rate of every class
// at every depth, one series per class.
//
// Each class is one executor task; within a class, depths run
// sequentially so each search warm-starts from the neighboring depth's
// threshold — adjacent depths have nearby DoS rates, so galloping out
// from the previous answer replaces the full cold bracket. Keeping the
// warm-start chain inside one task means the probe sequence is
// identical at any worker count.
func minFloodRateVsDepth(cfg Config, title string, depths []int, classes []floodClass) (*Figure, error) {
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

	return &Figure{
		Title:  title,
		XLabel: "rules traversed before action",
		YLabel: "minimum flood rate (packets/s)",
		Series: series,
	}, nil
}
