package experiment

import (
	"fmt"
	"slices"
	"time"

	"barbican/internal/core"
	"barbican/internal/faults"
	"barbican/internal/policy"
)

// chaosPartition is the management-channel outage the chaos family
// uses: it opens just before the push fires and lifts 1.5 s later, so
// convergence requires surviving the window.
var chaosPartition = faults.Plan{Down: []faults.Window{{From: 900 * time.Millisecond, To: 2500 * time.Millisecond}}}

// chaosCondition is one management-channel state under test.
type chaosCondition struct {
	label string
	plan  faults.Plan
	push  policy.PushOptions
}

// chaosConditions returns the management-channel sweep: clean, lossy,
// partitioned, and the partitioned channel with the legacy single-shot
// push (no retries) that stalls forever. With cfg.Faults set (the
// -faults flag), the sweep collapses to that single custom plan.
func chaosConditions(cfg Config) []chaosCondition {
	if cfg.Faults != nil {
		return []chaosCondition{{label: "faults " + cfg.Faults.String(), plan: *cfg.Faults}}
	}
	conds := []chaosCondition{
		{label: "clean mgmt"},
		{label: "mgmt loss 10%", plan: faults.Plan{Loss: 0.10}},
		{label: "mgmt loss 30%", plan: faults.Plan{Loss: 0.30}},
		{label: "mgmt partition", plan: chaosPartition},
		{label: "partition, no retry", plan: chaosPartition, push: policy.PushOptions{MaxAttempts: 1}},
	}
	if cfg.Quick {
		conds = []chaosCondition{conds[0], conds[2], conds[3], conds[4]}
	}
	return conds
}

func (c Config) chaosScenario(dev core.Device, rate float64, cond chaosCondition) core.ChaosScenario {
	return core.ChaosScenario{
		Device:       dev,
		FloodRatePPS: rate,
		MgmtFaults:   cond.plan,
		FaultSeed:    c.FaultSeed,
		Seed:         c.Seed,
		Duration:     c.window(4*time.Second, 8*time.Second),
		Push:         cond.push,
	}
}

// ChaosBandwidth extends Figure 3(a) to a faulty management channel:
// available bandwidth vs flood rate on the ADF, with the mitigating
// deny-flood policy pushed at t=1s over each management-channel
// condition. Where the push cannot converge (the legacy single-shot
// series through a partition), the flood keeps hitting the stack and
// the point is annotated.
func ChaosBandwidth(cfg Config) (*Figure, error) {
	rates := []float64{0, 2000, 4000, 8000, 12500}
	if cfg.Quick {
		rates = []float64{0, 2000, 8000}
	}
	conds := chaosConditions(cfg)

	points, err := sweep(cfg, rect(len(conds), len(rates)), func(r, c int) (Point, error) {
		label := fmt.Sprintf("%s_rate-%.0f", conds[r].label, rates[c])
		p, err := chaosRuns.point(cfg, "chaos-bandwidth", label, cfg.chaosScenario(core.DeviceADF, rates[c], conds[r]))
		if err != nil {
			return Point{}, err
		}
		pt := Point{X: rates[c], Y: p.Mbps()}
		switch {
		case p.TargetLocked:
			pt.Note = "LOCKUP"
		case !p.Converged:
			pt.Note = "no converge"
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Chaos: Available Bandwidth During Flood, Policy Pushed Over a Faulty Management Channel (ADF)",
		XLabel: "flood rate (packets/s)",
		YLabel: "available bandwidth (Mbps)",
	}
	for r, cond := range conds {
		fig.Series = append(fig.Series, Series{Label: cond.label, Points: points[r]})
	}
	return fig, nil
}

// ChaosConvergence measures the policy plane itself: how long the push
// takes to land (and how many attempts it burns) under each
// management-channel condition, per device, with the data plane under
// a 2,000 pps flood.
func ChaosConvergence(cfg Config) (*Table, error) {
	devs := []core.Device{core.DeviceEFW, core.DeviceADF}
	if cfg.Quick {
		devs = []core.Device{core.DeviceADF}
	}
	conds := chaosConditions(cfg)

	cells, err := sweep(cfg, rect(len(devs), len(conds)), func(r, c int) ([]string, error) {
		dev, cond := devs[r], conds[c]
		label := fmt.Sprintf("%s_%s", dev, cond.label)
		p, err := chaosRuns.point(cfg, "chaos-convergence", label, cfg.chaosScenario(dev, 2000, cond))
		if err != nil {
			return nil, err
		}
		converged := "no"
		convergeMS := "-"
		if p.Converged {
			converged = "yes"
			convergeMS = fmt.Sprintf("%.0f", float64(p.ConvergeTime.Microseconds())/1e3)
		}
		note := p.PushError
		if p.TargetLocked {
			if note != "" {
				note += "; "
			}
			note += "LOCKUP"
		}
		return []string{
			dev.String(), cond.label, converged, convergeMS,
			fmt.Sprintf("%d", p.Server.Attempts), fmt.Sprintf("%d", p.Server.Retries),
			fmt.Sprintf("%.1f", p.Mbps()), note,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Chaos: Policy Convergence Over a Faulty Management Channel (2,000 pps flood)",
		Columns: []string{"device", "mgmt channel", "converged", "converge (ms)", "attempts", "retries", "bandwidth (Mbps)", "notes"},
		Rows:    slices.Concat(cells...),
	}, nil
}
