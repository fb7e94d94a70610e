package experiment

import (
	"fmt"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/tracing"
	"barbican/internal/runner"
)

// The stateflood family measures the new attack surface a stateful
// card buys: its conntrack table. A long-lived sparse TCP session (one
// small keepalive every 250 ms) is the victim; the attack wins when it
// pushes the session's entry out of the table so the established-only
// policy stops recognizing the connection. That happens at packet
// rates far below what CPU exhaustion needs — state is the cheaper
// resource to exhaust.

func (c Config) statefloodDuration() time.Duration { return c.window(2*time.Second, 2*time.Second) }

func (c Config) statefloodScenario(kind measure.FloodKind, policy conntrack.EvictPolicy, rate float64) core.StatefloodScenario {
	return core.StatefloodScenario{
		FloodKind:    kind,
		EvictPolicy:  policy,
		FloodRatePPS: rate,
		Seed:         c.Seed,
		Duration:     c.statefloodDuration(),
	}
}

// StatefloodCurves plots probe-session survival vs SYN-flood rate for
// each table eviction policy. LRU collapses first: the flood only has
// to recycle the table faster than the session's keepalive interval,
// and the session's entry — briefly the least recently used — is the
// one evicted. SYN-early-drop never evicts an assured entry, so its
// curve stays flat until ordinary packet-rate exhaustion.
func StatefloodCurves(cfg Config) (*Figure, error) {
	rates := []float64{1000, 2000, 4000, 6000, 8000, 12000, 20000, 30000}
	if cfg.Quick {
		rates = []float64{2000, 6000, 20000}
	}
	policies := []conntrack.EvictPolicy{conntrack.EvictLRU, conntrack.EvictRandom, conntrack.EvictSYNDrop}

	type task struct {
		series int
		policy conntrack.EvictPolicy
		rate   float64
	}
	var tasks []task
	for si, pol := range policies {
		for _, rate := range rates {
			tasks = append(tasks, task{series: si, policy: pol, rate: rate})
		}
	}

	points, err := runner.Map(cfg.pool(), len(tasks), func(i int) (Point, error) {
		t := tasks[i]
		label := fmt.Sprintf("evict-%s_rate-%.0f", t.policy, t.rate)
		p, err := statefloodRuns.point(cfg, "stateflood-curves", label, cfg.statefloodScenario(measure.FloodTCPSYN, t.policy, t.rate))
		if err != nil {
			return Point{}, err
		}
		pt := Point{X: t.rate, Y: p.SessionRatio()}
		if p.DoSed() {
			pt.Note = "DoS"
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  "Stateflood: Probe-Session Survival vs SYN-Flood Rate (StatefulFW, 1024-entry table, depth 64)",
		XLabel: "flood rate (packets/s)",
		YLabel: "session keepalives echoed (fraction)",
	}
	for _, pol := range policies {
		fig.Series = append(fig.Series, Series{Label: "evict " + pol.String()})
	}
	for i, t := range tasks {
		fig.Series[t.series].Points = append(fig.Series[t.series].Points, points[i])
	}
	return fig, nil
}

// statefloodThresholdRow is one minimum-rate search of the threshold
// table.
type statefloodThresholdRow struct {
	label string
	note  string
	run   func(cfg Config) (core.MinFloodResult, error)
}

func statefloodSessionSearch(kind measure.FloodKind, policy conntrack.EvictPolicy) func(Config) (core.MinFloodResult, error) {
	return func(cfg Config) (core.MinFloodResult, error) {
		return core.MinStatefloodRate(cfg.statefloodScenario(kind, policy, 0))
	}
}

func statefloodBandwidthSearch(allowed bool) func(Config) (core.MinFloodResult, error) {
	return func(cfg Config) (core.MinFloodResult, error) {
		return core.MinFloodRate(core.Scenario{
			Device:       core.DeviceStateful,
			Depth:        64,
			FloodAllowed: allowed,
			Seed:         cfg.Seed,
			Duration:     cfg.statefloodDuration(),
		})
	}
}

// StatefloodThresholds is the family's headline table: the minimum
// flood rate that denies service, by attack and eviction policy, on
// the same card profile throughout. The SYN/LRU state-exhaustion
// threshold sits far below every packet-rate threshold — the state
// table, not the processor, is the card's scarcest resource — and
// SYN-early-drop pushes the threshold back to the packet-rate bound.
func StatefloodThresholds(cfg Config) (*Table, error) {
	rows := []statefloodThresholdRow{
		{
			label: "SYN flood / evict lru",
			note:  "state exhaustion: session entry recycled between keepalives",
			run:   statefloodSessionSearch(measure.FloodTCPSYN, conntrack.EvictLRU),
		},
		{
			label: "SYN flood / evict random",
			note:  "state exhaustion: eviction must hit the 1-in-1025 session entry",
			run:   statefloodSessionSearch(measure.FloodTCPSYN, conntrack.EvictRandom),
		},
		{
			label: "SYN flood / evict syn-drop",
			note:  "assured entries never evicted; only packet rate remains",
			run:   statefloodSessionSearch(measure.FloodTCPSYN, conntrack.EvictSYNDrop),
		},
		{
			label: "UDP flood (session criterion)",
			note:  "denied flood, no state created: pure packet-rate bound",
			run:   statefloodSessionSearch(measure.FloodUDP, 0),
		},
		{
			label: "UDP flood / stateless policy (bandwidth criterion)",
			note:  "paper's DoS criterion on the same card, admitted flood",
			run:   statefloodBandwidthSearch(true),
		},
	}
	if cfg.Quick {
		rows = []statefloodThresholdRow{rows[0], rows[2], rows[4]}
	}

	out, err := runner.Map(cfg.pool(), len(rows), func(i int) ([]string, error) {
		r := rows[i]
		res, err := r.run(cfg)
		if err != nil {
			return nil, err
		}
		cfg.account(res.Probes, res.SimSeconds, res.WallBusy)
		min := fmt.Sprintf("> %d", core.MaxSearchRatePPS)
		if res.Found {
			min = fmt.Sprintf("%.0f", res.RatePPS)
		}
		return []string{r.label, min, fmt.Sprintf("%d", res.Probes), r.note}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Stateflood: Minimum DoS Flood Rate by Attack and Eviction Policy (StatefulFW, depth 64)",
		Columns: []string{"attack", "min DoS rate (pps)", "probes", "notes"},
		Rows:    out,
	}, nil
}

// StatefloodACK measures the bare-ACK flood against the established-
// only policy: every flood packet classifies ctstate INVALID and is
// dropped after one table lookup, before any rule is evaluated. No
// state is ever created — the table holds only the probe session — and
// the session survives rates that the SYN flood wins at, demonstrating
// that the conntrack fast path drops stateless garbage without paying
// for it in table entries.
func StatefloodACK(cfg Config) (*Table, error) {
	rates := []float64{4000, 8000, 20000, 30000}
	if cfg.Quick {
		rates = []float64{8000, 20000}
	}

	rows, err := runner.Map(cfg.pool(), len(rates), func(i int) ([]string, error) {
		label := fmt.Sprintf("rate-%.0f", rates[i])
		p, err := statefloodRuns.point(cfg, "stateflood-ack", label, cfg.statefloodScenario(measure.FloodTCPACK, 0, rates[i]))
		if err != nil {
			return nil, err
		}
		note := ""
		if p.DoSed() {
			note = "DoS"
		}
		return []string{
			fmt.Sprintf("%.0f", rates[i]),
			fmt.Sprintf("%.2f", p.SessionRatio()),
			fmt.Sprintf("%d", p.TargetNIC.RxDrops[tracing.DropNoState]),
			fmt.Sprintf("%d", p.CTEntries),
			fmt.Sprintf("%d", p.Conntrack.Created),
			note,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Stateflood: ACK Flood Against an Established-Only Policy (dropped INVALID, no state created)",
		Columns: []string{"flood rate (pps)", "session survival", "no-state drops", "table entries", "entries created", "notes"},
		Rows:    rows,
	}, nil
}

// StatefloodRecovery reports the state-desync experiment: a fail-open
// degraded episode interrupts enforcement mid-session, and the table
// compares what each StateRecovery policy does to three flows — one
// tracked before the outage, one born during it (invisible to the
// card), one born after. RecoveryKeep restores the committed policy
// but severs the mid-outage flow: both endpoints hold a healthy
// connection the firewall refuses to recognize. RecoveryResync's
// loose-pickup window re-adopts it; RecoveryFlush severs even the
// pre-outage flow.
func StatefloodRecovery(cfg Config) (*Table, error) {
	policies := []nic.StateRecovery{nic.RecoveryKeep, nic.RecoveryFlush, nic.RecoveryResync}

	yes := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "SEVERED"
	}
	rows, err := runner.Map(cfg.pool(), len(policies), func(i int) ([]string, error) {
		r, err := core.RunStateRecovery(core.StateRecoveryScenario{Recovery: policies[i], Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		cfg.account(1, r.SimSeconds, r.WallBusy)
		note := ""
		switch {
		case !r.MidOutageOK && r.PreOutageOK:
			note = "desync: outage-born flow invisible to restored policy"
		case !r.PreOutageOK:
			note = "flush severs every pre-existing flow"
		case r.PreOutageOK && r.MidOutageOK:
			note = "loose pickup re-adopts mid-stream flows"
		}
		return []string{
			policies[i].String(),
			yes(r.PreOutageOK), yes(r.MidOutageOK), yes(r.NewFlowOK),
			fmt.Sprintf("%d", r.WatchdogResets), note,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   "Stateflood: Connection Survival Across Degraded-Mode Recovery (fail-open outage, by state-recovery policy)",
		Columns: []string{"recovery", "pre-outage flow", "mid-outage flow", "new flow", "watchdog resets", "notes"},
		Rows:    rows,
	}, nil
}
