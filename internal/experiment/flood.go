package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"barbican/internal/core"
	"barbican/internal/obs/tracing"
)

// floodWindow is a flood point's measurement window when the
// configuration sets no Duration.
const floodWindow = 2 * time.Second

// FloodSweep is the grid barbican flood explores: one device's
// available bandwidth at every depth × flood rate, or with Search its
// minimum denial-of-service flood rate at every depth.
type FloodSweep struct {
	// Base is the scenario every point starts from. Each point sets
	// Depth and FloodRatePPS; Duration, Seed and FaultSeed come from
	// the Config.
	Base   core.Scenario
	Depths []int
	Rates  []float64
	// Search runs one minimum-flood-rate search per depth instead of
	// the rate list. Searches ignore the artifact flags, as fig3b does.
	Search bool
}

// Experiment returns the sweep as an experiment named flood with one
// text part: a report per point, in declaration order. Each bandwidth
// point writes its artifacts under <dir>/flood/<label>.
func (f FloodSweep) Experiment() Experiment {
	return Experiment{Name: "flood", Parts: []Part{{Name: "flood", Text: f.run}}}
}

func (f FloodSweep) run(cfg Config) (string, error) {
	base := f.Base
	base.Duration = cfg.window(floodWindow, floodWindow)
	base.Seed, base.FaultSeed = cfg.Seed, cfg.FaultSeed
	// One row per depth: its rates, or its one search.
	cols := rect(len(f.Depths), len(f.Rates))
	if f.Search {
		cols = rect(len(f.Depths), 1)
	}
	reports, err := sweep(cfg, cols, func(r, c int) (string, error) {
		s := base
		s.Depth = f.Depths[r]
		if f.Search {
			res, err := core.MinFloodRate(s)
			if err != nil {
				return "", err
			}
			cfg.account(res.Probes, res.SimSeconds, res.WallBusy)
			return searchReport(s, res), nil
		}
		s.FloodRatePPS = f.Rates[c]
		label := fmt.Sprintf("%s_depth-%d_rate-%.0f_%s", s.Device, s.Depth, s.FloodRatePPS, floodMode(s.FloodAllowed))
		p, err := bandwidthRuns.point(cfg, "flood", label, s)
		if err != nil {
			return "", err
		}
		return bandwidthReport(s, p), nil
	})
	if err != nil {
		return "", err
	}
	// Every report ends in a newline; the command adds the last one.
	return strings.TrimSuffix(strings.Join(slices.Concat(reports...), ""), "\n"), nil
}

// searchReport renders a minimum-flood-rate search result.
func searchReport(s core.Scenario, r core.MinFloodResult) string {
	if !r.Found {
		return fmt.Sprintf("%v depth=%d: no denial of service up to %d pps\n",
			s.Device, s.Depth, core.MaxSearchRatePPS)
	}
	note := ""
	if r.LockedUp {
		note = "  (card LOCKED UP — agent restart required, as the paper observed)"
	}
	return fmt.Sprintf("%v depth=%d flood-%s: minimum DoS flood rate ≈ %.0f pps (%d probes)%s\n",
		s.Device, s.Depth, floodMode(s.FloodAllowed), r.RatePPS, r.Probes, note)
}

// bandwidthReport renders a bandwidth point: the available bandwidth
// and the target card's frame accounting.
func bandwidthReport(s core.Scenario, p core.BandwidthPoint) string {
	out := fmt.Sprintf("%v depth=%d flood=%.0f pps (%s): %.1f Mbps available\n",
		s.Device, s.Depth, s.FloodRatePPS, floodMode(s.FloodAllowed), p.Mbps())
	if p.TargetLocked {
		out += "target card LOCKED UP during the flood\n"
	}
	st := p.TargetNIC
	rxOverload := st.RxDrops[tracing.DropCPUExhausted] + st.RxDrops[tracing.DropQueueOverflow]
	txOverload := st.TxDrops[tracing.DropCPUExhausted] + st.TxDrops[tracing.DropQueueOverflow]
	out += fmt.Sprintf("target card: rx %d frames (%d allowed, %d denied, %d overload-dropped), tx %d (%d overload-dropped)\n",
		st.RxFrames, st.RxAllowed, st.RxDrops[tracing.DropRuleDeny], rxOverload, st.TxAllowed, txOverload)
	return out
}

func floodMode(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "denied"
}
