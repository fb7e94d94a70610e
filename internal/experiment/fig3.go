package experiment

import (
	"fmt"

	"barbican/internal/core"
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

	points, err := sweep(cfg, rect(len(devs), len(rates)), func(r, c int) (Point, error) {
		depth := 1
		if devs[r] == core.DeviceStandard {
			depth = 0 // "No Firewall"
		}
		runLabel := fmt.Sprintf("%s_rate-%.0f", fig.Series[r].Label, rates[c])
		p, err := bandwidthRuns.point(cfg, "fig3a", runLabel, core.Scenario{
			Device: devs[r], Depth: depth,
			FloodRatePPS: rates[c], FloodAllowed: true,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return Point{}, err
		}
		pt := Point{X: rates[c], Y: p.Mbps()}
		if p.TargetLocked {
			pt.Note = "LOCKUP"
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for r := range fig.Series {
		fig.Series[r].Points = points[r]
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
// at every depth, one series per class. Every (class, depth) point is
// its own cold search and its own executor task, so a point depends on
// its scenario and seed alone, never on the order of the sweep.
func minFloodRateVsDepth(cfg Config, title string, depths []int, classes []floodClass) (*Figure, error) {
	points, err := sweep(cfg, rect(len(classes), len(depths)), func(ci, di int) (Point, error) {
		class, d := classes[ci], depths[di]
		r, err := core.MinFloodRate(core.Scenario{
			Device: class.Device, Depth: d, FloodAllowed: class.Allowed,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return Point{}, err
		}
		cfg.account(r.Probes, r.SimSeconds, r.WallBusy)
		pt := Point{X: float64(d), Y: r.RatePPS}
		switch {
		case !r.Found:
			pt.Note = "no DoS found"
		case r.LockedUp:
			pt.Note = "LOCKUP"
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  title,
		XLabel: "rules traversed before action",
		YLabel: "minimum flood rate (packets/s)",
	}
	for r, class := range classes {
		fig.Series = append(fig.Series, Series{Label: class.Label(), Points: points[r]})
	}
	return fig, nil
}
