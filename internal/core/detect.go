package core

import (
	"time"

	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/policy"
	"barbican/internal/stack"
	"barbican/internal/telemetry"
)

// BenignBurstPort carries the false-positive experiment's bursty but
// legitimate traffic (UDP discard). The detection scenarios bind it on
// the target so bursts are a real admitted workload, not an ICMP
// error storm.
const BenignBurstPort = 9

// DetectionScenario measures whether — and how fast — the fleet
// *knows* it is under attack. The target runs a telemetry agent
// reporting card health to a collector on the policy server over the
// same management network the policy pushes use; the collector's
// flood-onset detector raises an alert, optionally triggering a
// responsive blocklist push. The measurements are time-to-detect
// (flood start → Alerting) and window-of-exposure (flood packets the
// target admitted before detection / before the mitigation converged).
type DetectionScenario struct {
	// Device is the target's firewall card.
	Device Device
	// Depth installs the paper's standard rule-set shape on the target
	// (0 leaves it unprotected, like the chaos scenarios).
	Depth int
	// FloodAllowed selects the standard rule set's action rule when
	// Depth > 0: true admits the flood (exposure is then non-zero and
	// detection must come from overload drops and backlog), false
	// denies it at the card (detection from the deny counters).
	FloodAllowed bool
	// FloodRatePPS, when positive, floods the target from FloodStart
	// until the measurement window closes.
	FloodRatePPS float64
	// FloodStart is when the flood begins (virtual time); zero means
	// 1 s — late enough for the detector to learn a quiet baseline.
	FloodStart time.Duration
	// Duration is the measurement window; zero means 5 s.
	Duration time.Duration
	// Iperf, when true, runs the chaos-style TCP bandwidth measurement
	// through the window. Off by default: at depth 64 the iperf stream
	// alone overloads the filtering cards (the paper's fig2 cliff), and
	// the detector — correctly — alerts on it before the flood even
	// starts, which makes a poor detection-latency baseline. Quiet
	// scenarios measure the detector; iperf scenarios measure how it
	// behaves under production load.
	Iperf bool
	// Seed seeds the simulation; zero means 1. FaultSeed seeds the
	// fault injectors; zero means Seed.
	Seed      int64
	FaultSeed int64
	// MgmtFaults is applied to both directions of the policy server's
	// access link — telemetry reports and policy pushes share it, so a
	// lossy plan delays detection AND mitigation.
	MgmtFaults faults.Plan
	// ReportEvery is the telemetry cadence; zero means
	// telemetry.DefaultReportInterval.
	ReportEvery time.Duration
	// Detector tunes the collector's flood-onset detector.
	Detector telemetry.DetectorConfig
	// SilenceAfter arms the collector's staleness watchdog; zero means
	// 3.5 report intervals (a mute device is a hot signal — the EFW
	// lockup silences its own telemetry), negative disables it.
	SilenceAfter time.Duration
	// Respond, when true, pushes ChaosPolicy to the target the moment
	// its detector alerts, closing the detect→mitigate loop.
	Respond bool
	// Push tunes the responsive push's retry engine.
	Push policy.PushOptions
	// BenignBurstPPS, when positive, drives on/off UDP bursts from the
	// client to the target's discard port — legitimate traffic the
	// detector must not page on. BenignBurstOn/Off set the duty cycle
	// (zero means 500 ms each).
	BenignBurstPPS float64
	BenignBurstOn  time.Duration
	BenignBurstOff time.Duration
}

// DetectionPoint is the outcome of a detection scenario.
type DetectionPoint struct {
	Scenario DetectionScenario

	// Detected reports whether the target's detector reached Alerting;
	// AlertAt is when (virtual time), TimeToDetect measured from
	// FloodStart.
	Detected     bool
	AlertAt      time.Duration
	TimeToDetect time.Duration

	// Converged reports the responsive push landing (Respond only);
	// ResponseTime is FloodStart → ConvergedAt.
	Converged    bool
	ConvergedAt  time.Duration
	ResponseTime time.Duration
	PushError    string

	// The window of exposure: flood datagrams the target's stack
	// delivered before the alert, before the mitigation converged, and
	// over the whole run.
	ExposedAtDetect   uint64
	ExposedAtConverge uint64
	ExposedTotal      uint64

	// FalseAlerts counts Alerting entries that are not the flood
	// detection itself — client-side alerts, and target alerts before
	// the flood began (or with no flood configured at all).
	FalseAlerts int
	// Timeline is the target detector's full transition record;
	// FinalState its state at scenario end. ClientTimeline is the
	// client device's record (any Alerting entry there is a false
	// positive by construction).
	Timeline       []telemetry.Transition
	ClientTimeline []telemetry.Transition
	FinalState     telemetry.AlertState

	// Telemetry-plane accounting: collector totals, the target
	// device's sequence gaps (reports the management network lost),
	// and what the agents handed to their stacks.
	Reports        uint64
	Corrupt        uint64
	Gaps           uint64
	AgentReports   uint64
	AgentSendFails uint64

	// Fleet is the collector's health model at scenario end, one row
	// per tracked device in tracking order.
	Fleet []DeviceSummary

	Iperf measure.IperfResult
	Outcome
}

// DeviceSummary is one row of the collector's fleet-health model.
type DeviceSummary struct {
	Device   string
	State    telemetry.AlertState
	Reports  uint64
	Gaps     uint64
	Alerts   int
	LastSeen time.Duration
}

// Mbps returns the measured available bandwidth.
func (p DetectionPoint) Mbps() float64 { return p.Iperf.Mbps }

// RunDetection executes a detection scenario: quiet baseline until
// FloodStart, flood through the rest of the iperf window, telemetry
// flowing throughout, alert (and optionally a responsive push) when the
// collector's detector fires, then the kernel runs on until the push
// settles.
func RunDetection(s DetectionScenario) (DetectionPoint, error) {
	p, _, err := runDetection(s, nil)
	return p, err
}

// RunDetectionObserved is RunDetection with the observability pillars
// opt selects attached for the whole run; the collector, the telemetry
// agents and the policy plane publish into its registry. Observation
// never changes the simulated outcome.
func RunDetectionObserved(s DetectionScenario, opt ObserveOptions) (DetectionPoint, *Instrumentation, error) {
	return runDetection(s, &opt)
}

// runDetection is the detection family's measurement on the one body;
// opt nil runs unobserved.
func runDetection(s DetectionScenario, opt *ObserveOptions) (DetectionPoint, *Instrumentation, error) {
	if s.FloodStart == 0 {
		s.FloodStart = time.Second
	}
	if s.Duration == 0 {
		s.Duration = 5 * time.Second
	}
	if s.ReportEvery == 0 {
		s.ReportEvery = telemetry.DefaultReportInterval
	}
	if s.SilenceAfter == 0 {
		s.SilenceAfter = 7 * s.ReportEvery / 2
	} else if s.SilenceAfter < 0 {
		s.SilenceAfter = 0
	}
	if s.BenignBurstOn == 0 {
		s.BenignBurstOn = 500 * time.Millisecond
	}
	if s.BenignBurstOff == 0 {
		s.BenignBurstOff = 500 * time.Millisecond
	}

	p := DetectionPoint{Scenario: s}
	var (
		pp                       *policyPlane
		collector                *telemetry.Collector
		targetAgent, clientAgent *telemetry.Agent
		sink                     *stack.UDPSocket
		exposureBase             uint64
	)
	// Exposure is counted at the flood sink: datagrams that cleared the
	// card AND the stack are the packets an attacker actually landed.
	exposed := func() uint64 {
		n, _ := sink.Received()
		return n - exposureBase
	}
	setup := func(e *env) (err error) {
		tb := e.tb
		pp, err = e.policyPlane("detect", s.MgmtFaults, func(at time.Duration, _ *fw.RuleSet) {
			p.Converged, p.ConvergedAt, p.ResponseTime = true, at, at-s.FloodStart
			p.ExposedAtConverge = exposed()
		})
		if err != nil {
			return err
		}
		if sink, err = tb.Target.BindUDP(FloodPort); err != nil {
			return err
		}
		tb.Kernel.After(s.FloodStart, func() {
			exposureBase, _ = sink.Received()
		})

		collector, err = telemetry.NewCollector(tb.PolicyServer, telemetry.CollectorConfig{
			Detector:     s.Detector,
			SilenceAfter: s.SilenceAfter,
			OnAlert: func(device string, at time.Duration) {
				// Only an alert at or after flood start is the detection;
				// earlier ones (for example iperf startup overloading a deep
				// linear-walk card) land in FalseAlerts instead.
				if device != "target" || p.Detected || s.FloodRatePPS <= 0 || at < s.FloodStart {
					return
				}
				p.Detected = true
				p.AlertAt = at
				p.TimeToDetect = at - s.FloodStart
				p.ExposedAtDetect = exposed()
				if s.Respond {
					pp.push(s.Push)
				}
			},
		})
		if err != nil {
			return err
		}
		collector.Track("target")
		collector.Track("client")

		targetAgent, err = telemetry.NewAgent(tb.Target, telemetry.AgentConfig{
			Device:       "target",
			Collector:    tb.PolicyServer.IP(),
			Interval:     s.ReportEvery,
			RulesVersion: pp.agent.InstalledVersion,
		})
		if err != nil {
			return err
		}
		clientAgent, err = telemetry.NewAgent(tb.Client, telemetry.AgentConfig{
			Device:    "client",
			Collector: tb.PolicyServer.IP(),
			Interval:  s.ReportEvery,
		})
		if err != nil {
			return err
		}
		targetAgent.Start()
		clientAgent.Start()
		if e.reg != nil {
			collector.PublishMetrics(e.reg)
			targetAgent.PublishMetrics(e.reg)
			clientAgent.PublishMetrics(e.reg)
		}
		return nil
	}

	measurement := func(e *env) error {
		tb := e.tb
		var burst *measure.Flooder
		if s.BenignBurstPPS > 0 {
			if _, err := tb.Target.BindUDP(BenignBurstPort); err != nil {
				return err
			}
			burst = measure.NewFlooder(tb.Client, tb.Target.IP(), measure.FloodConfig{
				RatePPS: s.BenignBurstPPS,
				DstPort: BenignBurstPort,
			})
			var on, off func()
			on = func() {
				burst.Start()
				tb.Kernel.After(s.BenignBurstOn, off)
			}
			off = func() {
				burst.Stop()
				tb.Kernel.After(s.BenignBurstOff, on)
			}
			on()
		}

		if s.Iperf {
			res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target,
				measure.IperfConfig{Duration: s.Duration, Metrics: e.reg})
			if err != nil {
				return err
			}
			p.Iperf = res
		} else if err := tb.Kernel.RunFor(s.Duration); err != nil {
			return err
		}
		if e.flood != nil {
			e.flood.Stop()
		}
		if burst != nil {
			burst.Stop()
		}
		// Let a late responsive push settle. Telemetry keeps flowing
		// through the settle — stopping the agents here would make the
		// watchdog (correctly) alert on the manufactured silence, and
		// the post-mitigation timeline should show the detector walking
		// back to healthy.
		waited, err := pp.settle(tb.Kernel)
		if err != nil || waited || e.flood == nil {
			return err
		}
		// No push pending: still drain briefly so the detector observes
		// post-flood calm and the terminal fleet state reflects
		// recovery, not a mid-flood snapshot.
		return tb.Kernel.RunFor(2 * time.Second)
	}

	out, inst, err := run(Scenario{
		Device:       s.Device,
		Depth:        s.Depth,
		FloodRatePPS: s.FloodRatePPS,
		FloodStart:   s.FloodStart,
		Duration:     s.Duration,
		Seed:         s.Seed,
		FaultSeed:    s.FaultSeed,
	}, phases{
		rules: func(depth int) (*fw.RuleSet, error) {
			return standardRuleSet(depth, s.FloodAllowed, 0)
		},
		setup:   setup,
		measure: measurement,
	}, opt)
	if err != nil {
		return DetectionPoint{}, nil, err
	}
	p.Outcome = out
	p.PushError = pp.pushError()

	p.ExposedTotal = exposed()
	if !p.Detected {
		p.ExposedAtDetect = p.ExposedTotal
	}
	if s.Respond && !p.Converged {
		p.ExposedAtConverge = p.ExposedTotal
	}

	if h := collector.Health("target"); h != nil {
		p.Timeline = h.Detector.Transitions()
		p.FinalState = h.Detector.State()
		p.Gaps = h.Gaps
		for _, tr := range p.Timeline {
			if tr.To == telemetry.AlertAlerting && (s.FloodRatePPS <= 0 || tr.At < s.FloodStart) {
				p.FalseAlerts++
			}
		}
	}
	if h := collector.Health("client"); h != nil {
		p.ClientTimeline = h.Detector.Transitions()
		p.FalseAlerts += h.Detector.Alerts()
	}
	p.Reports, p.Corrupt, _ = collector.Totals()
	for _, name := range collector.Devices() {
		h := collector.Health(name)
		p.Fleet = append(p.Fleet, DeviceSummary{
			Device:  name,
			State:   h.Detector.State(),
			Reports: h.Reports,
			Gaps:    h.Gaps,
			Alerts:  h.Detector.Alerts(),
			LastSeen: func() time.Duration {
				if h.Reports == 0 {
					return -1
				}
				return h.LastAt
			}(),
		})
	}
	for _, a := range []*telemetry.Agent{targetAgent, clientAgent} {
		sent, failed := a.Sent()
		p.AgentReports += sent
		p.AgentSendFails += failed
	}
	return p, inst, nil
}
