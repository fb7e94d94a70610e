package core

import (
	"fmt"
	"time"

	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// StatefloodEchoPort is the TCP service the stateflood victim exposes:
// a long-lived echo session rides on it, and SYN floods aim at it (a
// stateful policy only creates state for SYNs the new-connection rule
// admits, so the flood must target an open service).
const StatefloodEchoPort = 8007

// SessionDoSRatio is the stateflood denial-of-service criterion: the
// probe session counts an echo for each keepalive it sends, and the
// flood wins when fewer than half come back. A state-table flood kills
// the session by evicting its conntrack entry between keepalives —
// packets still flow, but the firewall no longer recognizes the
// connection.
const SessionDoSRatio = 0.5

// echoMsgBytes is the probe session's keepalive payload size: small and
// sparse, the worst case for sharing a state table with a flood.
const echoMsgBytes = 8

// StatefulRuleSet builds the stateflood experimental policy: depth-1
// non-matching rules, then a rule admitting new connections to the echo
// service, then the classic "allow established,related" rule, default
// deny. The shape mirrors the paper's depth sweeps while exercising the
// conntrack matchers on every packet.
func StatefulRuleSet(depth int) (*fw.RuleSet, error) {
	rules := make([]fw.Rule, 0, depth+1)
	for i := 1; i < depth; i++ {
		rules = append(rules, fw.NonMatchingRule(i))
	}
	rules = append(rules,
		fw.Rule{
			Name:      "allow-new-echo",
			Action:    fw.Allow,
			Direction: fw.In,
			Proto:     packet.ProtoTCP,
			DstPorts:  fw.Port(StatefloodEchoPort),
			States:    fw.MaskOf(fw.StateNew),
		},
		fw.Rule{
			Name:      "allow-established",
			Action:    fw.Allow,
			Direction: fw.Both,
			States:    fw.MaskOf(fw.StateEstablished, fw.StateRelated),
		},
	)
	return fw.NewRuleSet(fw.Deny, rules...)
}

// StatefloodScenario describes one state-exhaustion measurement: a
// stateful card defending a long-lived sparse TCP session while an
// attacker floods it.
type StatefloodScenario struct {
	// Device is the target's card; zero means DeviceStateful.
	Device Device
	// Depth is the rule-set depth (paper shape); zero means 64.
	Depth int
	// FloodRatePPS is the attack rate; zero disables the flood
	// (baseline).
	FloodRatePPS float64
	// FloodKind selects the attack; zero means FloodTCPSYN (the
	// state-exhaustion attack). FloodTCPACK probes the no-state path;
	// FloodUDP reproduces the paper's packet-rate attack on the same
	// card for the threshold comparison.
	FloodKind measure.FloodKind
	// SpoofCount is how many source addresses a SYN flood cycles
	// through; zero means 256. Source-port cycling alone yields only
	// 1024 distinct flow keys — as many as the card's whole table —
	// so a real state attack spoofs addresses too.
	SpoofCount int
	// EvictPolicy overrides the card's table eviction policy (zero
	// keeps the profile default, LRU).
	EvictPolicy conntrack.EvictPolicy
	// FailMode arms the degraded-mode machine. Zero leaves it off, in
	// which case a full table drops new connections (the closed
	// posture); FailModeOpen instead admits them untracked.
	FailMode nic.FailMode
	// Seed makes the run reproducible; zero means 1.
	Seed int64
	// Duration is the flooded measurement window; zero means 2s.
	Duration time.Duration
	// KeepaliveEvery is the probe session's send interval; zero means
	// 250ms. The attack's leverage is exactly this sparseness: the
	// session's entry must survive between keepalives.
	KeepaliveEvery time.Duration
}

func (s *StatefloodScenario) defaults() {
	if s.Device == 0 {
		s.Device = DeviceStateful
	}
	if s.Depth == 0 {
		s.Depth = 64
	}
	if s.FloodKind == 0 {
		s.FloodKind = measure.FloodTCPSYN
	}
	if s.SpoofCount == 0 {
		s.SpoofCount = 256
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	if s.KeepaliveEvery == 0 {
		s.KeepaliveEvery = 250 * time.Millisecond
	}
}

// StatefloodPoint is one stateflood measurement.
type StatefloodPoint struct {
	Scenario StatefloodScenario
	// SessionSent and SessionEchoed count the probe session's
	// keepalives sent during the flooded window and the echoes that
	// came back (echoes of in-window sends are collected through a
	// short drain after the flood stops).
	SessionSent   uint64
	SessionEchoed uint64
	// SessionReset reports the probe connection was reset.
	SessionReset bool
	// Conntrack snapshots the victim card's table at the end of the
	// run; CTEntries/CTCapacity give its final occupancy.
	Conntrack  conntrack.Stats
	CTEntries  int
	CTCapacity int
	Outcome
}

// SessionRatio is the fraction of in-window keepalives that were
// echoed; 1.0 when nothing was sent (no evidence of DoS).
func (p StatefloodPoint) SessionRatio() float64 {
	if p.SessionSent == 0 {
		return 1
	}
	return float64(p.SessionEchoed) / float64(p.SessionSent)
}

// DoSed reports whether the flood denied service to the probe session.
func (p StatefloodPoint) DoSed() bool { return p.SessionRatio() < SessionDoSRatio }

// echoSession is one long-lived sparse TCP session: a client connection
// to the target's echo service exchanging a small keepalive message on
// a timer.
type echoSession struct {
	conn      *stack.Conn
	connected bool
	reset     bool
	sent      uint64
	echoBytes uint64
	stopped   bool
}

// setupEchoServer exposes the echo service on h.
func setupEchoServer(h *stack.Host) error {
	_, err := h.ListenTCP(StatefloodEchoPort, func(c *stack.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write(append([]byte(nil), b...))
		}
	})
	return err
}

// dialEcho opens a probe session from h to the echo service at dst.
func dialEcho(h *stack.Host, dst packet.IP) (*echoSession, error) {
	c, err := h.DialTCP(dst, StatefloodEchoPort)
	if err != nil {
		return nil, err
	}
	s := &echoSession{conn: c}
	c.OnConnect = func() { s.connected = true }
	c.OnData = func(b []byte) { s.echoBytes += uint64(len(b)) }
	c.OnReset = func() { s.reset = true }
	return s, nil
}

// echoed returns complete keepalive echoes received so far.
func (s *echoSession) echoed() uint64 { return s.echoBytes / echoMsgBytes }

// startKeepalive begins the periodic send loop.
func (s *echoSession) startKeepalive(k *sim.Kernel, interval time.Duration) {
	var tick func(any)
	tick = func(any) {
		if s.stopped {
			return
		}
		if s.connected && !s.reset {
			s.sent++
			_ = s.conn.Write(make([]byte, echoMsgBytes))
		}
		k.AfterCall(interval, tick, nil)
	}
	k.AfterCall(interval, tick, nil)
}

// exchange sends one keepalive and waits, reporting whether its echo
// arrived — the recovery experiment's per-flow liveness check.
func (s *echoSession) exchange(k *sim.Kernel, wait time.Duration) (bool, error) {
	before := s.echoBytes
	s.sent++
	_ = s.conn.Write(make([]byte, echoMsgBytes))
	if err := k.RunFor(wait); err != nil {
		return false, err
	}
	return s.echoBytes >= before+echoMsgBytes, nil
}

// spoofPool returns n distinct benchmarking-range source addresses
// (RFC 2544's 198.18.0.0/15) for the flood to cycle through.
func spoofPool(n int) []packet.IP {
	ips := make([]packet.IP, n)
	for i := range ips {
		ips[i] = packet.IP{198, 18, byte(i / 254), byte(1 + i%254)}
	}
	return ips
}

// RunStateflood executes one stateflood measurement: establish the
// probe session, let it reach steady state, flood for the scenario's
// window, and report what fraction of the session's keepalives
// survived.
func RunStateflood(s StatefloodScenario) (StatefloodPoint, error) {
	p, _, err := runStateflood(s, nil)
	return p, err
}

// RunStatefloodObserved is RunStateflood with the observability
// pillars opt selects attached for the whole run. Observation never
// changes the simulated outcome.
func RunStatefloodObserved(s StatefloodScenario, opt ObserveOptions) (StatefloodPoint, *Instrumentation, error) {
	return runStateflood(s, &opt)
}

// runStateflood is the stateflood family's measurement on the one
// body; opt nil runs unobserved.
func runStateflood(s StatefloodScenario, opt *ObserveOptions) (StatefloodPoint, *Instrumentation, error) {
	s.defaults()
	p := StatefloodPoint{Scenario: s}
	var es *echoSession
	out, inst, err := run(Scenario{
		Device:       s.Device,
		Depth:        s.Depth,
		FloodRatePPS: s.FloodRatePPS,
		FloodKind:    s.FloodKind,
		Duration:     s.Duration,
		Seed:         s.Seed,
	}, phases{
		rules: StatefulRuleSet,
		evict: s.EvictPolicy,
		aim: func(cfg *measure.FloodConfig) {
			switch s.FloodKind {
			case measure.FloodTCPSYN:
				// State exhaustion: SYNs the new-connection rule admits,
				// from many spoofed sources so each creates a distinct
				// table entry.
				cfg.DstPort = StatefloodEchoPort
				cfg.SpoofSources = spoofPool(s.SpoofCount)
			case measure.FloodTCPACK:
				// No-state probe: every packet classifies INVALID and is
				// dropped after a lookup; no entries are ever created.
				cfg.DstPort = StatefloodEchoPort
			}
			// Otherwise the packet-rate reference: UDP to the closed
			// flood port is denied at full rule depth, never touching
			// the table.
		},
		setup: func(e *env) (err error) {
			tb := e.tb
			if s.FailMode != 0 {
				tb.Target.NIC().SetFailMode(s.FailMode)
			}
			if err := setupEchoServer(tb.Target); err != nil {
				return err
			}
			if es, err = dialEcho(tb.Client, tb.Target.IP()); err != nil {
				return err
			}
			// Handshake, then steady keepalives: the session's conntrack
			// entry is assured and periodically refreshed before the
			// attack starts.
			if err := tb.Kernel.RunFor(100 * time.Millisecond); err != nil {
				return err
			}
			es.startKeepalive(tb.Kernel, s.KeepaliveEvery)
			return tb.Kernel.RunFor(2 * s.KeepaliveEvery)
		},
		measure: func(e *env) error {
			tb := e.tb
			sent0, echo0 := es.sent, es.echoed()
			if err := tb.Kernel.RunFor(s.Duration); err != nil {
				return err
			}
			p.SessionSent = es.sent - sent0
			es.stopped = true
			if e.flood != nil {
				e.flood.Stop()
			}
			// Drain: echoes of in-window keepalives that were still in
			// flight when the window closed.
			if err := tb.Kernel.RunFor(300 * time.Millisecond); err != nil {
				return err
			}
			if echoed := es.echoed(); echoed > echo0 {
				p.SessionEchoed = min(echoed-echo0, p.SessionSent)
			}
			p.SessionReset = es.reset
			p.Conntrack = tb.Target.NIC().ConntrackStats()
			if ct := tb.Target.NIC().Conntrack(); ct != nil {
				p.CTEntries, p.CTCapacity = ct.Len(), ct.Cap()
			}
			return nil
		},
	}, opt)
	if err != nil {
		return StatefloodPoint{}, nil, err
	}
	p.Outcome = out
	return p, inst, nil
}

// MinStatefloodRate finds the minimum flood rate that denies service to
// the probe session, by the same grid bisection as MinFloodRate but
// with the session-survival criterion instead of the bandwidth one.
// The scenario's FloodRatePPS is ignored; each probe builds a fresh
// testbed.
func MinStatefloodRate(s StatefloodScenario) (MinFloodResult, error) {
	return minFloodRate(func(rate float64) (bool, Outcome, error) {
		sc := s
		sc.FloodRatePPS = rate
		p, err := RunStateflood(sc)
		return p.DoSed(), p.Outcome, err
	})
}

// StateRecoveryScenario describes the state-desync experiment: a
// stateful card goes through a fail-open degraded episode mid-session,
// and the configured StateRecovery policy decides what happens to
// connection state when enforcement returns.
type StateRecoveryScenario struct {
	// Depth is the rule-set depth; zero means 64.
	Depth int
	// Recovery is the card's state-recovery policy.
	Recovery nic.StateRecovery
	// Seed makes the run reproducible; zero means 1.
	Seed int64
}

// StateRecoveryResult reports which flows survived the degraded
// episode. The desync hazard is MidOutage: a connection established
// while the card failed open has no conntrack entry, so under
// RecoveryKeep the restored established-only policy severs it even
// though both endpoints consider it healthy.
type StateRecoveryResult struct {
	Scenario StateRecoveryScenario
	// PreOutageOK: a flow established (and tracked) before the outage
	// exchanges data after recovery.
	PreOutageOK bool
	// MidOutageOK: a flow established during the fail-open outage
	// exchanges data after recovery.
	MidOutageOK bool
	// NewFlowOK: a flow established after recovery exchanges data.
	NewFlowOK bool
	// WatchdogResets confirms the card actually degraded and recovered.
	WatchdogResets uint64
	SimSeconds     float64
	WallBusy       time.Duration
}

// RunStateRecovery executes the state-desync experiment for one
// recovery policy.
func RunStateRecovery(s StateRecoveryScenario) (StateRecoveryResult, error) {
	if s.Depth == 0 {
		s.Depth = 64
	}
	res := StateRecoveryResult{Scenario: s}
	out, _, err := run(Scenario{Device: DeviceStateful, Depth: s.Depth, Seed: s.Seed}, phases{
		rules:   StatefulRuleSet,
		measure: func(e *env) error { return stateRecovery(e.tb, s.Recovery, &res) },
	}, nil)
	if err != nil {
		return res, err
	}
	res.SimSeconds, res.WallBusy = out.SimSeconds, out.WallBusy
	return res, nil
}

// stateRecovery drives the three probe flows through one fail-open
// degraded episode on tb's stateful target, recording which survive.
func stateRecovery(tb *Testbed, recovery nic.StateRecovery, res *StateRecoveryResult) error {
	card := tb.Target.NIC()
	card.SetFailMode(nic.FailModeOpen)
	card.SetStateRecovery(recovery)
	if err := setupEchoServer(tb.Target); err != nil {
		return err
	}

	// Flow A: established and assured while the card is healthy.
	a, err := dialEcho(tb.Client, tb.Target.IP())
	if err != nil {
		return err
	}
	if err := tb.Kernel.RunFor(100 * time.Millisecond); err != nil {
		return err
	}
	if ok, err := a.exchange(tb.Kernel, 50*time.Millisecond); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("core: probe session dead before outage")
	}

	// Outage: a policy push torn down mid-flight degrades the card,
	// which fails open. The watchdog restores enforcement ~100ms later.
	card.BeginPolicyUpdate()
	card.AbortPolicyUpdate()
	if card.DegradedState() != nic.StateDegraded {
		return fmt.Errorf("core: card did not degrade")
	}

	// Flow B: established during the outage — it passes fail-open, so
	// the card never sees state for it.
	b, err := dialEcho(tb.Client, tb.Target.IP())
	if err != nil {
		return err
	}
	if err := tb.Kernel.RunFor(30 * time.Millisecond); err != nil {
		return err
	}
	if ok, err := b.exchange(tb.Kernel, 30*time.Millisecond); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("core: mid-outage session dead during fail-open")
	}

	// Let the watchdog recover.
	if err := tb.Kernel.RunFor(200 * time.Millisecond); err != nil {
		return err
	}
	if card.DegradedState() != nic.StateHealthy {
		return fmt.Errorf("core: card did not recover")
	}
	res.WatchdogResets = card.Stats().WatchdogResets

	if res.PreOutageOK, err = a.exchange(tb.Kernel, 200*time.Millisecond); err != nil {
		return err
	}
	if res.MidOutageOK, err = b.exchange(tb.Kernel, 200*time.Millisecond); err != nil {
		return err
	}

	// Flow C: established after recovery.
	c, err := dialEcho(tb.Client, tb.Target.IP())
	if err != nil {
		return err
	}
	if err := tb.Kernel.RunFor(100 * time.Millisecond); err != nil {
		return err
	}
	res.NewFlowOK, err = c.exchange(tb.Kernel, 200*time.Millisecond)
	return err
}
