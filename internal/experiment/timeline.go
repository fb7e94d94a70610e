package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/obs/tracing"
	"barbican/internal/runner"
)

// FloodTimelineRate is the flood rate of the timeline experiment — the
// paper's maximum Figure 3(a) rate, at which every filtering card's
// available bandwidth collapsed to zero.
const FloodTimelineRate = 12500

// FloodTimeline renders Figure 3(a)'s central finding as a time series
// instead of a single endpoint scalar: available bandwidth is measured
// continuously while a 12,500 packets/s flood switches on mid-run (and,
// for the quick variant, off again before the end). The instantaneous
// goodput and target-card drop-rate series come straight from the
// flight recorder; the per-run artifacts Config selects (telemetry,
// traces, profiles) are written alongside. Each device's run is one executor
// task (every run owns a private kernel and recorder, and artifact
// files are named per device, so tasks never contend).
func FloodTimeline(cfg Config) (*Figure, error) {
	duration := 4 * cfg.bandwidthDuration()
	floodStart := duration / 4
	floodStop := 3 * duration / 4

	fig := &Figure{
		Title: fmt.Sprintf("Flood timeline: goodput during a %d pps flood (on at %.1fs, off at %.1fs)",
			FloodTimelineRate, floodStart.Seconds(), floodStop.Seconds()),
		XLabel: "time (s)",
		YLabel: "goodput (Mbps) / drops (kpps)",
	}

	devices := []core.Device{core.DeviceStandard, core.DeviceADF}
	if !cfg.Quick {
		devices = []core.Device{core.DeviceStandard, core.DeviceIPTables, core.DeviceEFW, core.DeviceADF}
	}

	groups, err := runner.Map(cfg.pool(), len(devices), func(di int) ([]Series, error) {
		dev := devices[di]
		depth := 1
		if dev == core.DeviceStandard {
			depth = 0
		}
		_, inst, err := bandwidthRuns.observe(cfg, "timeline", dev.String(), core.Scenario{
			Device: dev, Depth: depth,
			FloodRatePPS: FloodTimelineRate, FloodAllowed: true,
			FloodStart: floodStart, FloodStop: floodStop,
			Duration: duration, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("timeline %v: %w", dev, err)
		}

		goodput := Series{Label: dev.String() + " Mbps"}
		if sd, ok := inst.Recorder.Series(`iperf_rx_bytes_total{proto="tcp"}`); ok {
			for _, pt := range sd.Rate() {
				goodput.Points = append(goodput.Points, Point{
					X: roundTo(pt.T.Seconds(), 3),
					Y: pt.V * 8 / 1e6,
				})
			}
		}
		out := []Series{goodput}
		// One drop-rate series per drop reason the target actually hit,
		// so the collapse window shows *why* packets died (the paper's
		// Fig 3a regime is cpu-exhausted; rule-deny floods differ).
		for _, r := range tracing.DropReasons() {
			id := fmt.Sprintf(`nic_drops_total{dir="rx",host="target",reason=%q}`, r.String())
			sd, ok := inst.Recorder.Series(id)
			if !ok {
				continue
			}
			drops := Series{Label: fmt.Sprintf("%s drops %s", dev, r)}
			nonzero := false
			for _, pt := range sd.Rate() {
				if pt.V != 0 {
					nonzero = true
				}
				drops.Points = append(drops.Points, Point{
					X: roundTo(pt.T.Seconds(), 3),
					Y: pt.V / 1000,
				})
			}
			if nonzero {
				out = append(out, drops)
			}
		}

		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, group := range groups {
		fig.Series = append(fig.Series, group...)
	}
	return fig, nil
}

// roundTo quantizes v to the given number of decimals so recorder tick
// times from different runs land on shared x values in the figure.
func roundTo(v float64, decimals int) float64 {
	scale := 1.0
	for i := 0; i < decimals; i++ {
		scale *= 10
	}
	return float64(int64(v*scale+0.5)) / scale
}
