package core

import (
	"errors"
	"fmt"
	"time"

	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/measure"
	"barbican/internal/policy"
)

// ChaosPolicy is the flood-mitigating policy the chaos scenarios push
// while the target is under attack: deny the flood signature, allow the
// measurement traffic.
const ChaosPolicy = `deny in proto udp from any to any port 7
default allow
`

// ChaosPushAt is when (virtual time) a chaos scenario's policy push
// starts: the target is then already under flood.
const ChaosPushAt = time.Second

// ErrInstallUnproven reports that a chaos scenario's agent installed a
// rule set the semantics engine could not prove equivalent to the
// pushed policy, or whose compiled classifier it could not prove equal
// to the linear walk.
var ErrInstallUnproven = errors.New("core: installed policy not proven equivalent to the pushed policy")

// ChaosScenario describes a chaos experiment: the target starts
// unprotected and under flood, and the policy server pushes the
// mitigating policy over a management channel subjected to a fault
// plan. The measurement is whether (and how fast) the policy plane
// converges, and what bandwidth remains available.
type ChaosScenario struct {
	// Device is the target's firewall card.
	Device Device
	// FloodRatePPS, when positive, floods the target for the whole run.
	FloodRatePPS float64
	// MgmtFaults is applied to both directions of the policy server's
	// access link; the zero plan leaves the channel clean.
	MgmtFaults faults.Plan
	// FaultSeed seeds the links' fault plans; zero means Seed.
	FaultSeed int64
	// Seed seeds the simulation; zero means 1.
	Seed int64
	// Duration is the bandwidth measurement window; zero means 5 s.
	Duration time.Duration
	// Push tunes the server's retry engine. The zero value uses the
	// defaults; MaxAttempts: 1 reproduces the pre-retry single-shot
	// behavior, which never converges through a partition.
	Push policy.PushOptions
}

// ChaosPoint is the outcome of a chaos scenario.
type ChaosPoint struct {
	Scenario ChaosScenario
	// Converged reports whether the agent installed the pushed policy;
	// ConvergedAt is when (virtual time), ConvergeTime is measured from
	// ChaosPushAt.
	Converged    bool
	ConvergedAt  time.Duration
	ConvergeTime time.Duration
	// PushError is the push's terminal error ("" on success or while
	// unsettled).
	PushError string
	Server    policy.ServerStats
	Agent     policy.AgentStats
	Iperf     measure.IperfResult
	Outcome
}

// Mbps returns the measured available bandwidth.
func (p ChaosPoint) Mbps() float64 { return p.Iperf.Mbps }

// RunChaos executes a chaos scenario: flood from t=0, policy push at
// ChaosPushAt over the faulty management channel, available bandwidth
// measured across the window, then the kernel runs on until the push
// settles (success or exhausted retry budget). When the agent installs
// the pushed policy, the exact semantics engine proves the install —
// semantic convergence, not just version-number convergence — and a
// failed proof is an ErrInstallUnproven error.
func RunChaos(s ChaosScenario) (ChaosPoint, error) {
	p, _, err := runChaos(s, nil)
	return p, err
}

// RunChaosObserved is RunChaos with the observability pillars opt
// selects attached for the whole run, the policy plane's counters
// included. Observation never changes the simulated outcome.
func RunChaosObserved(s ChaosScenario, opt ObserveOptions) (ChaosPoint, *Instrumentation, error) {
	return runChaos(s, &opt)
}

// runChaos is the chaos family's measurement on the one body; opt nil
// runs unobserved.
func runChaos(s ChaosScenario, opt *ObserveOptions) (ChaosPoint, *Instrumentation, error) {
	if s.Duration == 0 {
		s.Duration = 5 * time.Second
	}
	p := ChaosPoint{Scenario: s}
	var pp *policyPlane
	var proofErr error
	out, inst, err := run(Scenario{
		Device:       s.Device,
		FloodRatePPS: s.FloodRatePPS,
		Duration:     s.Duration,
		Seed:         s.Seed,
		FaultSeed:    s.FaultSeed,
	}, phases{
		floodNow: true,
		setup: func(e *env) (err error) {
			pp, err = e.policyPlane("chaos", s.MgmtFaults, func(at time.Duration, rs *fw.RuleSet) {
				p.Converged, p.ConvergedAt, p.ConvergeTime = true, at, at-ChaosPushAt
				proofErr = verifyInstall(ChaosPolicy, rs)
			})
			return err
		},
		measure: func(e *env) (err error) {
			pp.pending = true
			e.tb.Kernel.After(ChaosPushAt, func() { pp.push(s.Push) })
			p.Iperf, err = measure.RunTCPIperf(e.tb.Kernel, e.tb.Client, e.tb.Target,
				measure.IperfConfig{Duration: s.Duration, Metrics: e.reg})
			if err != nil {
				return err
			}
			if e.flood != nil {
				e.flood.Stop()
			}
			_, err = pp.settle(e.tb.Kernel)
			return err
		},
	}, opt)
	if err == nil {
		err = proofErr
	}
	if err != nil {
		return ChaosPoint{}, nil, err
	}
	p.PushError = pp.pushError()
	p.Server = pp.srv.Stats()
	p.Agent = pp.agent.Stats()
	p.Outcome = out
	return p, inst, nil
}

// verifyInstall proves semantic convergence for one installed rule
// set: the installed rules must be verdict-identical to the pushed
// policy text over the entire packet space, and the compiled
// classifier the card runs must equal the linear walk on them. A
// failed proof wraps ErrInstallUnproven.
func verifyInstall(pushed string, installed *fw.RuleSet) error {
	want, err := policy.Parse(pushed)
	if err != nil {
		return fmt.Errorf("%w: parse pushed policy: %v", ErrInstallUnproven, err)
	}
	res, err := sem.Diff(want, installed, sem.DiffOptions{})
	if err != nil {
		return fmt.Errorf("%w: equivalence proof: %v", ErrInstallUnproven, err)
	}
	if !res.Equivalent {
		detail := "the rule sets differ"
		if len(res.Witnesses) > 0 {
			detail = res.Witnesses[0].String()
		}
		return fmt.Errorf("%w: %s", ErrInstallUnproven, detail)
	}
	vres, err := sem.VerifyCompiled(installed, sem.VerifyOptions{})
	if err != nil {
		return fmt.Errorf("%w: compiled-vs-walk proof: %v", ErrInstallUnproven, err)
	}
	if !vres.OK() {
		if vres.Mismatch != nil {
			return fmt.Errorf("%w: compiled classifier diverges: %s", ErrInstallUnproven, vres.Mismatch)
		}
		return fmt.Errorf("%w: compiled classifier counter parity: %s", ErrInstallUnproven, vres.ParityError)
	}
	return nil
}
