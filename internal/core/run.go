package core

import (
	"time"

	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs"
	"barbican/internal/policy"
	"barbican/internal/sim"
)

// Outcome is the part of a scenario point every family shares: the
// target card's end state, the flood's size and the run's cost. The
// one scenario body fills it at the close of the measurement.
type Outcome struct {
	// TargetLocked reports the EFW Deny-All lockup.
	TargetLocked bool
	TargetNIC    nic.Stats
	// Attribution breaks the target's policy enforcement down per
	// rule (hits, predicted cost/latency); nil when unfiltered.
	Attribution *RuleAttribution
	// FloodSent counts flood packets injected.
	FloodSent uint64
	// SimSeconds and WallBusy report how much virtual time the point's
	// kernel simulated and how much wall clock it burned doing so — the
	// inputs to the executor's sim-seconds-per-wall-second accounting.
	SimSeconds float64
	WallBusy   time.Duration
}

// env is a run in progress as a family's phases see it.
type env struct {
	s   Scenario // the shared defaults applied
	tb  *Testbed
	reg *obs.Registry // nil when the run is unobserved
	// flood is the armed flood; nil before startFlood or without one.
	flood *measure.Flooder
}

// phases plugs one scenario family into the one body, run.
type phases struct {
	// rules, when non-nil, replaces the paper's rule-set shape on the
	// target (see buildTestbed).
	rules func(depth int) (*fw.RuleSet, error)
	// evict overrides the eviction policy of every conntrack table.
	evict conntrack.EvictPolicy
	// floodNow starts the flood synchronously at t=0, with no settle.
	floodNow bool
	// aim adjusts the flood's configuration before it is armed.
	aim func(*measure.FloodConfig)
	// setup runs once the testbed is built and observed, before the
	// flood is armed.
	setup func(e *env) error
	// measure is the family's measurement phase; the flood is armed.
	measure func(e *env) error
}

// run is the one scenario body every family goes through: apply the
// shared defaults, build and police the testbed, attach the pillars
// opt selects (nil runs unobserved), let the family set up, arm the
// flood, run the family's measurement, and fill the shared outcome.
// Observation never changes the simulated outcome.
func run(s Scenario, ph phases, opt *ObserveOptions) (Outcome, *Instrumentation, error) {
	s = s.withDefaults()
	tb, err := buildTestbed(s, ph)
	if err != nil {
		return Outcome{}, nil, err
	}
	e := &env{s: s, tb: tb}
	var inst *Instrumentation
	if opt != nil {
		inst = tb.observe(*opt)
		e.reg = inst.Registry
	}
	if ph.setup != nil {
		if err := ph.setup(e); err != nil {
			return Outcome{}, nil, err
		}
	}
	if e.flood, err = startFlood(e, ph); err != nil {
		return Outcome{}, nil, err
	}
	if err := ph.measure(e); err != nil {
		return Outcome{}, nil, err
	}
	out := Outcome{
		TargetLocked: tb.Target.NIC().Locked(),
		TargetNIC:    tb.Target.NIC().Stats(),
		Attribution:  ruleAttribution(tb),
		SimSeconds:   tb.Kernel.Now().Seconds(),
		WallBusy:     tb.Kernel.WallBusy(),
	}
	if e.flood != nil {
		e.flood.Stop()
		out.FloodSent = e.flood.Sent()
	}
	if inst != nil {
		// Final sample at the close of the measurement window.
		inst.Recorder.Sample()
		inst.Recorder.Stop()
	}
	return out, inst, nil
}

// withDefaults applies the defaults every family shares: Seed zero
// means 1 and FaultSeed zero means Seed.
func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = s.Seed
	}
	return s
}

// BuildTestbed builds and polices the testbed for s exactly as a
// scenario run does, for tools that drive their own measurement on it
// (the RFC 2544 and latency appendices).
func BuildTestbed(s Scenario) (*Testbed, error) {
	return buildTestbed(s.withDefaults(), phases{})
}

// buildTestbed constructs and polices a testbed for the scenario.
func buildTestbed(s Scenario, ph phases) (*Testbed, error) {
	clientDevice := DeviceStandard
	if s.Device == DeviceADFVPG {
		clientDevice = DeviceADFVPG
	}
	tb, err := NewTestbed(TestbedOptions{
		ClientDevice:           clientDevice,
		TargetDevice:           s.Device,
		Seed:                   s.Seed,
		SuppressFloodResponses: s.SuppressFloodResponses,
		EagerVPGDecrypt:        s.EagerVPGDecrypt,
		ConntrackEvict:         ph.evict,
	})
	if err != nil {
		return nil, err
	}
	if s.Faults != nil {
		link.AttachFaults(tb.Target.NIC().Endpoint(), *s.Faults, s.FaultSeed)
	}
	if s.Depth <= 0 {
		return tb, nil
	}

	if ph.rules != nil {
		rules, err := ph.rules(s.Depth)
		if err != nil {
			return nil, err
		}
		tb.InstallPolicy(tb.Target, rules)
		return tb, nil
	}
	if s.Device == DeviceADFVPG {
		if _, err := tb.SetupVPG(VPGGroupName, "validation", tb.Client, tb.Target); err != nil {
			return nil, err
		}
		targetRules, err := vpgRuleSet(s.Depth, tb.Target.IP(), s.TrailingRules)
		if err != nil {
			return nil, err
		}
		clientRules, err := vpgRuleSet(s.Depth, tb.Client.IP(), s.TrailingRules)
		if err != nil {
			return nil, err
		}
		tb.InstallPolicy(tb.Target, targetRules)
		tb.InstallPolicy(tb.Client, clientRules)
		return tb, nil
	}

	rules, err := standardRuleSet(s.Depth, s.FloodAllowed || s.FloodRatePPS == 0, s.TrailingRules)
	if err != nil {
		return nil, err
	}
	tb.InstallPolicy(tb.Target, rules)
	return tb, nil
}

// startFlood arms the scenario's flood (if any). By default the flood
// runs from t=0 and reaches steady state over a 200 ms settle before
// measurement; a FloodStart/FloodStop window instead gates it inside
// the measurement, and ph.floodNow starts it at once with no settle.
// An observed run's registry gets the flooder's counter after the
// settle, or up front otherwise.
func startFlood(e *env, ph phases) (*measure.Flooder, error) {
	s, tb := e.s, e.tb
	if s.FloodRatePPS <= 0 {
		return nil, nil
	}
	cfg := measure.FloodConfig{
		Kind:    s.FloodKind,
		RatePPS: s.FloodRatePPS,
		DstPort: FloodPort,
	}
	if s.FloodFragmented {
		cfg.Fragment = true
		cfg.PayloadBytes = 24 // splits into two fragments at a 16-byte MTU chunk
	}
	if ph.aim != nil {
		ph.aim(&cfg)
	}
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), cfg)
	publish := func() {
		if e.reg != nil {
			f.PublishMetrics(e.reg, obs.L("host", "attacker"))
		}
	}
	switch {
	case ph.floodNow:
		publish()
		f.Start()
	case s.FloodStart > 0 || s.FloodStop > 0:
		publish()
		tb.Kernel.After(s.FloodStart, f.Start)
		if s.FloodStop > s.FloodStart {
			tb.Kernel.After(s.FloodStop, f.Stop)
		}
	default:
		f.Start()
		if err := tb.Kernel.RunFor(200 * time.Millisecond); err != nil {
			return nil, err
		}
		publish()
	}
	return f, nil
}

// policyPlane is the management side the chaos and detect families
// share: a policy server, the target's agent, and the state of the
// one push that installs ChaosPolicy.
type policyPlane struct {
	srv   *policy.Server
	agent *policy.Agent
	// pending reports a push scheduled or in flight; err is the
	// settled push's terminal error.
	pending bool
	err     error
}

// policyPlane starts a policy server and the target's agent keyed from
// passphrase, applies plan to both directions of the policy server's
// access link, and calls onInstall with the virtual time of the
// agent's first install.
func (e *env) policyPlane(passphrase string, plan faults.Plan, onInstall func(at time.Duration, rs *fw.RuleSet)) (*policyPlane, error) {
	psk := policy.DeriveKey(passphrase)
	pp := &policyPlane{srv: policy.NewServer(e.tb.PolicyServer, psk)}
	var err error
	if pp.agent, err = policy.NewAgent(e.tb.Target, e.tb.PolicyServer.IP(), psk); err != nil {
		return nil, err
	}
	link.AttachFaults(e.tb.PolicyServer.NIC().Endpoint(), plan, e.s.FaultSeed)
	installed := false
	pp.agent.OnInstall = func(_ uint32, rs *fw.RuleSet) {
		if !installed {
			installed = true
			onInstall(e.tb.Kernel.Now(), rs)
		}
	}
	if e.reg != nil {
		pp.agent.PublishMetrics(e.reg, obs.L("host", "target"))
		pp.srv.PublishMetrics(e.reg)
	}
	return pp, nil
}

// push sends ChaosPolicy to the target through the server's retry
// engine; it stays pending until the push settles.
func (pp *policyPlane) push(opts policy.PushOptions) {
	pp.pending = true
	settled := func(err error) { pp.pending, pp.err = false, err }
	if _, err := pp.srv.SetPolicy("target", ChaosPolicy); err != nil {
		settled(err)
		return
	}
	if err := pp.srv.PushWith("target", TargetIP, opts, settled); err != nil {
		settled(err)
	}
}

// settle runs the kernel on for 15 s while a push is pending, so the
// point reports the push's terminal outcome even when the window ended
// mid-backoff. It reports whether it ran.
func (pp *policyPlane) settle(k *sim.Kernel) (bool, error) {
	if !pp.pending {
		return false, nil
	}
	return true, k.RunFor(15 * time.Second)
}

// pushError renders the settled push's terminal error ("" on success
// or while pending).
func (pp *policyPlane) pushError() string {
	if pp.err == nil {
		return ""
	}
	return pp.err.Error()
}
