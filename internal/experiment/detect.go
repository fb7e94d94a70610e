package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"barbican/internal/core"
	"barbican/internal/faults"
	"barbican/internal/runner"
	"barbican/internal/telemetry"
)

// detectRate is the calibrated flood rate the exposure and chaos
// families use: it overloads the ADF card enough to self-signal (drops
// and backlog rise) while its telemetry agent can still get reports
// out, so detection is report-driven on a clean management channel and
// falls back to the collector's silence watchdog only when the channel
// eats the reports. Higher rates squeeze out all in-band telemetry and
// every condition collapses onto the silence path.
const detectRate = 6000

// detectConditions returns the management-channel sweep for the
// detection chaos family. With cfg.Faults set (the -faults flag), the
// sweep collapses to that single custom plan.
func detectConditions(cfg Config) []chaosCondition {
	if cfg.Faults != nil {
		return []chaosCondition{{label: "faults " + cfg.Faults.String(), plan: *cfg.Faults}}
	}
	conds := []chaosCondition{
		{label: "clean mgmt"},
		{label: "mgmt loss 30%", plan: faults.Plan{Loss: 0.30}},
		{label: "mgmt loss 60%", plan: faults.Plan{Loss: 0.60}},
		{label: "mgmt partition", plan: chaosPartition},
	}
	if cfg.Quick {
		conds = []chaosCondition{conds[0], conds[2], conds[3]}
	}
	return conds
}

func (c Config) detectScenario(dev core.Device, depth int, rate float64, allowed bool, cond chaosCondition) core.DetectionScenario {
	return core.DetectionScenario{
		Device:       dev,
		Depth:        depth,
		FloodAllowed: allowed,
		FloodRatePPS: rate,
		MgmtFaults:   cond.plan,
		FaultSeed:    c.FaultSeed,
		Seed:         c.Seed,
		Duration:     c.window(3*time.Second, 5*time.Second),
	}
}

func detectNote(p core.DetectionPoint) string {
	var notes []string
	if !p.Detected && p.Scenario.FloodRatePPS > 0 {
		notes = append(notes, "no detect")
	}
	if p.TargetLocked {
		notes = append(notes, "LOCKUP")
	}
	if p.Detected && len(p.Timeline) > 0 {
		for _, tr := range p.Timeline {
			if tr.To == telemetry.AlertAlerting && tr.At == p.AlertAt && tr.Signal < 0 {
				notes = append(notes, "via silence")
				break
			}
		}
	}
	if p.PushError != "" {
		notes = append(notes, p.PushError)
	}
	return strings.Join(notes, "; ")
}

// DetectionLatency measures time-to-detect vs flood rate for each
// card, flooding the deny-flood policy at depth 64: every flood packet
// lands in the card's deny counters, so the signal reaches the
// collector at whatever fidelity the card's own condition permits. The
// EFW series reproduces the paper's Deny-All lockup — the card goes
// mute and detection arrives via the collector's silence watchdog.
func DetectionLatency(cfg Config) (*Figure, error) {
	rates := []float64{2000, 4000, 8000, 12500}
	if cfg.Quick {
		rates = []float64{2000, 8000}
	}
	devs := []core.Device{core.DeviceEFW, core.DeviceADF, core.DeviceNextGen}
	conds := detectConditions(cfg)
	cond := conds[0] // latency sweeps the clean channel (or -faults)

	type task struct {
		series int
		dev    core.Device
		rate   float64
	}
	var tasks []task
	for si, dev := range devs {
		for _, rate := range rates {
			tasks = append(tasks, task{series: si, dev: dev, rate: rate})
		}
	}

	points, err := runner.Map(cfg.pool(), len(tasks), func(i int) (Point, error) {
		t := tasks[i]
		label := fmt.Sprintf("%s_rate-%.0f", t.dev, t.rate)
		p, err := detectRuns.point(cfg, "detect-latency", label, cfg.detectScenario(t.dev, 64, t.rate, false, cond))
		if err != nil {
			return Point{}, err
		}
		pt := Point{X: t.rate, Note: detectNote(p)}
		if p.Detected {
			pt.Y = float64(p.TimeToDetect.Microseconds()) / 1e3
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Detection: Time-to-Detect vs Flood Rate (denied flood, depth 64)",
		XLabel: "flood rate (packets/s)",
		YLabel: "time to detect (ms)",
	}
	for _, dev := range devs {
		fig.Series = append(fig.Series, Series{Label: dev.String()})
	}
	for i, t := range tasks {
		fig.Series[t.series].Points = append(fig.Series[t.series].Points, points[i])
	}
	return fig, nil
}

// DetectionExposure measures the window of exposure: an admitted flood
// (the policy has no rule against it yet) runs until the collector
// detects it and pushes the deny-flood policy. Exposure is counted in
// flood datagrams the target's stack actually delivered — before the
// alert, before the push converged, and overall. Cards that absorb
// the flood without stress (NextGen, and the EFW at this rate) never
// self-signal, and the full flood lands: detection needs the card to
// hurt.
func DetectionExposure(cfg Config) (*Table, error) {
	type combo struct {
		dev   core.Device
		depth int
	}
	combos := []combo{
		{core.DeviceEFW, 64},
		{core.DeviceADF, 16},
		{core.DeviceADF, 64},
		{core.DeviceNextGen, 64},
	}
	if cfg.Quick {
		combos = []combo{{core.DeviceADF, 64}, {core.DeviceNextGen, 64}}
	}
	cond := detectConditions(cfg)[0]

	rows, err := runner.Map(cfg.pool(), len(combos), func(i int) ([]string, error) {
		c := combos[i]
		s := cfg.detectScenario(c.dev, c.depth, detectRate, true, cond)
		s.Respond = true
		p, err := detectRuns.point(cfg, "detect-exposure", fmt.Sprintf("%s_depth-%d", c.dev, c.depth), s)
		if err != nil {
			return nil, err
		}
		ttd, resp := "-", "-"
		if p.Detected {
			ttd = fmt.Sprintf("%.0f", float64(p.TimeToDetect.Microseconds())/1e3)
		}
		if p.Converged {
			resp = fmt.Sprintf("%.0f", float64(p.ResponseTime.Microseconds())/1e3)
		}
		return []string{
			c.dev.String(), fmt.Sprintf("%d", c.depth), ttd,
			fmt.Sprintf("%d", p.ExposedAtDetect), resp,
			fmt.Sprintf("%d", p.ExposedAtConverge), fmt.Sprintf("%d", p.ExposedTotal),
			fmt.Sprintf("%d", p.FloodSent), detectNote(p),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title: fmt.Sprintf("Detection: Window of Exposure Under an Admitted %d pps Flood (responsive deny push)", detectRate),
		Columns: []string{"device", "depth", "detect (ms)", "exposed@detect",
			"response (ms)", "exposed@converge", "exposed total", "flood sent", "notes"},
		Rows: rows,
	}, nil
}

// DetectionChaos is the acceptance experiment for the telemetry plane
// itself: the same admitted-flood scenario on the ADF, with the
// management channel — shared by telemetry reports and the responsive
// push — degraded per condition. Telemetry loss delays the alert and
// the mitigation, and both time-to-detect and the window of exposure
// widen measurably.
func DetectionChaos(cfg Config) (*Table, error) {
	conds := detectConditions(cfg)

	rows, err := runner.Map(cfg.pool(), len(conds), func(i int) ([]string, error) {
		s := cfg.detectScenario(core.DeviceADF, 64, detectRate, true, conds[i])
		s.Respond = true
		p, err := detectRuns.point(cfg, "detect-chaos", conds[i].label, s)
		if err != nil {
			return nil, err
		}
		ttd, resp := "-", "-"
		if p.Detected {
			ttd = fmt.Sprintf("%.0f", float64(p.TimeToDetect.Microseconds())/1e3)
		}
		if p.Converged {
			resp = fmt.Sprintf("%.0f", float64(p.ResponseTime.Microseconds())/1e3)
		}
		return []string{
			conds[i].label, ttd, fmt.Sprintf("%d", p.ExposedAtDetect),
			resp, fmt.Sprintf("%d", p.ExposedAtConverge),
			fmt.Sprintf("%d", p.Reports), fmt.Sprintf("%d", p.Gaps),
			fmt.Sprintf("%d", p.Corrupt), detectNote(p),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title: fmt.Sprintf("Detection Chaos: Telemetry Loss Widens Time-to-Detect and Exposure (ADF, %d pps admitted flood)", detectRate),
		Columns: []string{"mgmt channel", "detect (ms)", "exposed@detect",
			"response (ms)", "exposed@converge", "reports", "gaps", "corrupt", "notes"},
		Rows: rows,
	}, nil
}

// DetectionFalsePositives measures the detector's paging discipline:
// no flood at all, only benign on/off bursts from the client at
// increasing rates. A burst heavy enough to overload the card is
// indistinguishable from an attack at the card's counters — the
// interesting number is where that line sits for each device.
func DetectionFalsePositives(cfg Config) (*Table, error) {
	burstRates := []float64{1000, 4000, 12500}
	devs := []core.Device{core.DeviceEFW, core.DeviceADF}
	if cfg.Quick {
		devs = []core.Device{core.DeviceADF}
	}

	type task struct {
		dev  core.Device
		rate float64
	}
	var tasks []task
	for _, dev := range devs {
		for _, rate := range burstRates {
			tasks = append(tasks, task{dev: dev, rate: rate})
		}
	}

	rows, err := runner.Map(cfg.pool(), len(tasks), func(i int) ([]string, error) {
		t := tasks[i]
		s := cfg.detectScenario(t.dev, 64, 0, false, chaosCondition{})
		s.BenignBurstPPS = t.rate
		label := fmt.Sprintf("%s_burst-%.0f", t.dev, t.rate)
		p, err := detectRuns.point(cfg, "detect-false-positives", label, s)
		if err != nil {
			return nil, err
		}
		return []string{
			t.dev.String(), fmt.Sprintf("%.0f", t.rate),
			fmt.Sprintf("%d", p.FalseAlerts), p.FinalState.String(),
			fmt.Sprintf("%d", p.Reports), detectNote(p),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Detection: False Positives Under Benign Bursty Traffic (500 ms on/off, no flood)",
		Columns: []string{"device", "burst (pps)", "false alerts", "final state", "reports", "notes"},
		Rows:    rows,
	}, nil
}

// fleetTable renders the collector's end-of-run health model.
func fleetTable(p core.DetectionPoint) *Table {
	t := &Table{
		Title:   "Fleet Health",
		Columns: []string{"device", "state", "reports", "gaps", "alerts", "last seen (s)"},
	}
	for _, d := range p.Fleet {
		last := "-"
		if d.LastSeen >= 0 {
			last = fmt.Sprintf("%.3f", d.LastSeen.Seconds())
		}
		t.Rows = append(t.Rows, []string{
			d.Device, d.State.String(), fmt.Sprintf("%d", d.Reports),
			fmt.Sprintf("%d", d.Gaps), fmt.Sprintf("%d", d.Alerts), last,
		})
	}
	return t
}

// timelineMarkdown renders an alert timeline as a fixed-width text
// block.
func timelineMarkdown(label string, tl []telemetry.Transition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Alert timeline (%s):\n\n", label)
	if len(tl) == 0 {
		b.WriteString("    (no transitions)\n")
		return b.String()
	}
	for _, tr := range tl {
		signal := fmt.Sprintf("%.0f drops/s vs baseline %.1f", tr.Signal, tr.Baseline)
		if tr.Signal < 0 {
			signal = "silence (reports stale)"
		}
		fmt.Fprintf(&b, "    %8.3fs  %s -> %s  [%s]\n", tr.At.Seconds(), tr.From, tr.To, signal)
	}
	return b.String()
}

// FleetHealth runs the canonical detection scenario (ADF, depth 64,
// admitted flood, responsive push, clean management channel) and
// renders the collector's view of it: headline detection metrics, the
// fleet-health table, and the alert timeline. With cfg.MetricsDir set
// it also writes the table, timeline, and metric-snapshot artifacts.
func FleetHealth(cfg Config) (string, error) {
	s := cfg.detectScenario(core.DeviceADF, 64, detectRate, true, detectConditions(cfg)[0])
	s.Respond = true
	p, err := detectRuns.point(cfg, "fleet-health", "fleet-health", s)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("# Fleet health & flood detection\n\n")
	fmt.Fprintf(&b, "scenario: %s depth %d, %g pps admitted flood from t=%.0fs, responsive deny push\n\n",
		p.Scenario.Device, p.Scenario.Depth, p.Scenario.FloodRatePPS, p.Scenario.FloodStart.Seconds())
	if p.Detected {
		fmt.Fprintf(&b, "time-to-detect:     %8.1f ms  (alert at %.3fs)\n",
			float64(p.TimeToDetect.Microseconds())/1e3, p.AlertAt.Seconds())
	} else {
		b.WriteString("time-to-detect:     not detected\n")
	}
	if p.Converged {
		fmt.Fprintf(&b, "response time:      %8.1f ms  (deny policy converged)\n",
			float64(p.ResponseTime.Microseconds())/1e3)
	} else {
		fmt.Fprintf(&b, "response time:      no converge %s\n", p.PushError)
	}
	fmt.Fprintf(&b, "window of exposure: %8d packets at detection\n", p.ExposedAtDetect)
	fmt.Fprintf(&b, "                    %8d packets at convergence\n", p.ExposedAtConverge)
	fmt.Fprintf(&b, "                    %8d packets total (of %d sent)\n", p.ExposedTotal, p.FloodSent)
	fmt.Fprintf(&b, "telemetry:          %d reports, %d gaps, %d corrupt, %d send failures\n\n",
		p.Reports, p.Gaps, p.Corrupt, p.AgentSendFails)

	fleet := fleetTable(p)
	b.WriteString(fleet.Markdown())
	b.WriteString("\n")
	b.WriteString(timelineMarkdown("target", p.Timeline))
	if len(p.ClientTimeline) > 0 {
		b.WriteString("\n")
		b.WriteString(timelineMarkdown("client (false positives)", p.ClientTimeline))
	}

	if cfg.MetricsDir != "" {
		dir := cfg.MetricsDir + "/fleet-health"
		if err := WriteTableArtifacts(dir, "fleet", fleet); err != nil {
			return "", err
		}
		if err := WriteAlertTimeline(dir, "target", p.Timeline); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// WriteAlertTimeline writes an alert timeline as
// <dir>/<label>.timeline.{csv,json}.
func WriteAlertTimeline(dir, label string, tl []telemetry.Transition) error {
	writeCSV := func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"at_s", "from", "to", "signal_pps", "baseline_pps"}); err != nil {
			return err
		}
		for _, tr := range tl {
			err := cw.Write([]string{
				fmt.Sprintf("%g", tr.At.Seconds()), tr.From.String(), tr.To.String(),
				fmt.Sprintf("%g", tr.Signal), fmt.Sprintf("%g", tr.Baseline),
			})
			if err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	writeJSON := func(w io.Writer) error {
		type jsonTransition struct {
			AtSeconds float64 `json:"at_s"`
			From      string  `json:"from"`
			To        string  `json:"to"`
			Signal    float64 `json:"signal_pps"`
			Baseline  float64 `json:"baseline_pps"`
		}
		out := make([]jsonTransition, 0, len(tl))
		for _, tr := range tl {
			out = append(out, jsonTransition{
				AtSeconds: tr.At.Seconds(), From: tr.From.String(), To: tr.To.String(),
				Signal: tr.Signal, Baseline: tr.Baseline,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(out)
	}
	return writeArtifactPair(dir, label+".timeline", writeCSV, writeJSON)
}
