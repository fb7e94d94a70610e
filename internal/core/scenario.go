package core

import (
	"fmt"
	"time"

	"barbican/internal/apps"
	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/packet"
)

// FloodPort is the (closed) UDP port the flood generator targets. Allowed
// flood packets reaching the target's stack elicit ICMP port-unreachable
// responses that transit the firewall card outbound.
const FloodPort = 7

// VPGGroupName is the matching group used in VPG scenarios.
const VPGGroupName = "psq"

// Scenario describes one measurement configuration of the paper's
// methodology.
type Scenario struct {
	// Device is the target's firewall configuration.
	Device Device
	// Depth is the number of rules traversed before the action rule
	// (the paper's rule-set depth); for DeviceADFVPG it counts VPGs.
	// Zero means no policy installed at all.
	Depth int
	// FloodRatePPS, when positive, runs a flood from the attacker at
	// this rate during the measurement.
	FloodRatePPS float64
	// FloodAllowed selects the paper's two rule-set classes: the action
	// rule either allows the flood packets (true) or denies them.
	FloodAllowed bool
	// FloodKind is the flood traffic type; zero means UDP.
	FloodKind measure.FloodKind
	// FloodStart and FloodStop gate the flood to a window inside the
	// measurement, relative to its start: it switches on at FloodStart
	// and, when FloodStop > FloodStart, off at FloodStop. With both
	// zero the flood runs from t=0 and settles for 200 ms before
	// measurement begins.
	FloodStart time.Duration
	FloodStop  time.Duration
	// FloodFragmented splits flood packets into IP fragments (extension
	// EXT3): later fragments carry no ports, so a port-based deny rule
	// only ever stops the first fragment of each packet.
	FloodFragmented bool
	// Duration is the measurement window; zero uses the tool default.
	Duration time.Duration
	// Seed seeds the simulation; zero means 1.
	Seed int64
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan to both directions of the target's access link.
	Faults *faults.Plan
	// FaultSeed seeds the links' fault plans; zero means Seed.
	FaultSeed int64

	// SuppressFloodResponses disables victim RST/ICMP responses
	// (ablation ABL1).
	SuppressFloodResponses bool
	// EagerVPGDecrypt makes the ADF decrypt before rule matching
	// (ablation ABL2).
	EagerVPGDecrypt bool
	// TrailingRules appends non-matching rules after the action rule
	// (ablation ABL3; the paper observed they are free).
	TrailingRules int
}

// BandwidthPoint is the outcome of a bandwidth scenario.
type BandwidthPoint struct {
	Scenario Scenario
	Iperf    measure.IperfResult
	Outcome
}

// Mbps returns the measured available bandwidth.
func (p BandwidthPoint) Mbps() float64 { return p.Iperf.Mbps }

// HTTPPoint is the outcome of an HTTP load scenario.
type HTTPPoint struct {
	Scenario Scenario
	Load     measure.HTTPLoadResult
	Outcome
}

// StandardRuleSet builds the paper's experimental rule-set shape for
// explain-style tooling: depth-1 non-matching rules above the action
// rule, which either allows everything (default deny) or denies the
// flood signature (default allow).
func StandardRuleSet(depth int, floodAllowed bool) (*fw.RuleSet, error) {
	return standardRuleSet(depth, floodAllowed, 0)
}

// standardRuleSet builds the paper's experimental rule-set shape. With
// floodAllowed, the action rule at position depth allows everything
// (default deny); otherwise it denies the flood signature and the
// default allows the measurement traffic.
func standardRuleSet(depth int, floodAllowed bool, trailing int) (*fw.RuleSet, error) {
	if floodAllowed {
		return fw.DepthRuleSet(fw.Deny, depth, trailing, fw.AllowAllRule())
	}
	return fw.DepthRuleSet(fw.Allow, depth, trailing, fw.Rule{
		Name:      "deny-flood",
		Action:    fw.Deny,
		Direction: fw.In,
		Proto:     packet.ProtoUDP,
		DstPorts:  fw.Port(FloodPort),
	})
}

// vpgRuleSet builds a rule set with depth-1 non-matching VPG pairs above
// the matching VPG pair for the host at local, as the paper constructed
// its VPG depth sweeps. The pairs are the padding, so DepthRuleSet adds
// only the trailing rules.
func vpgRuleSet(depth int, local packet.IP, trailing int) (*fw.RuleSet, error) {
	rules := make([]fw.Rule, 0, 2*depth)
	for i := 1; i < depth; i++ {
		pad := packet.Prefix{Addr: packet.IP{203, 0, 113, byte(i)}, Bits: 32}
		rules = append(rules, fw.VPGRulePair(fmt.Sprintf("pad-%d", i), packet.IP{203, 0, 113, 200}, pad)...)
	}
	rules = append(rules, fw.VPGRulePair(VPGGroupName, local, packet.MustPrefix("10.0.0.0/24"))...)
	return fw.DepthRuleSet(fw.Deny, 1, trailing, rules...)
}

// RunBandwidth executes a bandwidth scenario: build the testbed, start
// the flood (if any), and measure available bandwidth between client and
// target with the iperf tool.
func RunBandwidth(s Scenario) (BandwidthPoint, error) {
	p, _, err := runBandwidth(s, nil)
	return p, err
}

// RunBandwidthObserved is RunBandwidth with the observability pillars
// opt selects attached for the whole run; the iperf sink's byte counter
// joins the registry so the recorded timeline carries an
// instantaneous-goodput series. Observation never changes the simulated
// outcome.
func RunBandwidthObserved(s Scenario, opt ObserveOptions) (BandwidthPoint, *Instrumentation, error) {
	return runBandwidth(s, &opt)
}

// runBandwidth is the bandwidth family's measurement on the one body;
// opt nil runs unobserved.
func runBandwidth(s Scenario, opt *ObserveOptions) (BandwidthPoint, *Instrumentation, error) {
	p := BandwidthPoint{Scenario: s}
	out, inst, err := run(s, phases{measure: func(e *env) (err error) {
		p.Iperf, err = measure.RunTCPIperf(e.tb.Kernel, e.tb.Client, e.tb.Target,
			measure.IperfConfig{Duration: s.Duration, Metrics: e.reg})
		return err
	}}, opt)
	if err != nil {
		return BandwidthPoint{}, nil, err
	}
	p.Outcome = out
	return p, inst, nil
}

// RunHTTP executes an HTTP load scenario against a web server on the
// target.
func RunHTTP(s Scenario) (HTTPPoint, error) {
	p := HTTPPoint{Scenario: s}
	out, _, err := run(s, phases{
		setup: func(e *env) error {
			_, err := apps.NewHTTPServer(e.tb.Target)
			return err
		},
		measure: func(e *env) (err error) {
			p.Load, err = measure.RunHTTPLoad(e.tb.Kernel, e.tb.Client, e.tb.Target, measure.HTTPLoadConfig{
				Duration: s.Duration,
			})
			return err
		},
	}, nil)
	if err != nil {
		return HTTPPoint{}, err
	}
	p.Outcome = out
	return p, nil
}
