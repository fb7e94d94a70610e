package core

import (
	"fmt"
	"time"

	"barbican/internal/faults"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/obs"
	"barbican/internal/obs/profile"
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
	// UseUDP measures raw UDP delivery instead of TCP goodput. The
	// paper's iperf runs used the default protocol (TCP), whose collapse
	// under loss is what turns card saturation into "0 Mbps available".
	UseUDP bool
	// Duration is the measurement window; zero uses the tool default.
	Duration time.Duration
	// Seed seeds the simulation; zero means 1.
	Seed int64
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan to both directions of the target's access link.
	Faults *faults.Plan
	// FaultSeed seeds the fault injectors; zero means Seed.
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
	Scenario     Scenario
	Iperf        measure.IperfResult
	FloodSent    uint64
	TargetLocked bool
	TargetNIC    nic.Stats
	// Attribution breaks the target's policy enforcement down per
	// rule (hits, predicted cost/latency); nil when unfiltered.
	Attribution *RuleAttribution
	// SimSeconds and WallBusy report how much virtual time the point's
	// kernel simulated and how much wall clock it burned doing so — the
	// inputs to the executor's sim-seconds-per-wall-second accounting.
	SimSeconds float64
	WallBusy   time.Duration
	// CostProfile is the run's merged cost-domain card profile; nil
	// unless the run was profiled (see RunBandwidthObserved). Excluded
	// from point serialization — profiles have their own artifacts.
	CostProfile *profile.Data `json:"-"`
}

// Mbps returns the measured available bandwidth.
func (p BandwidthPoint) Mbps() float64 { return p.Iperf.Mbps }

// HTTPPoint is the outcome of an HTTP load scenario.
type HTTPPoint struct {
	Scenario   Scenario
	Load       measure.HTTPLoadResult
	SimSeconds float64
	WallBusy   time.Duration
}

// buildTestbed constructs and polices a testbed for the scenario.
func buildTestbed(s Scenario) (*Testbed, error) {
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
	})
	if err != nil {
		return nil, err
	}
	if s.Faults != nil {
		seed := s.FaultSeed
		if seed == 0 {
			seed = s.Seed
		}
		if seed == 0 {
			seed = 1
		}
		faults.Attach(tb.Target.NIC().Endpoint(), *s.Faults, seed)
	}
	if s.Depth <= 0 {
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
	rules := make([]fw.Rule, 0, depth+trailing)
	for i := 1; i < depth; i++ {
		rules = append(rules, fw.NonMatchingRule(i))
	}
	def := fw.Deny
	if floodAllowed {
		rules = append(rules, fw.AllowAllRule())
	} else {
		rules = append(rules, fw.Rule{
			Name:      "deny-flood",
			Action:    fw.Deny,
			Direction: fw.In,
			Proto:     packet.ProtoUDP,
			DstPorts:  fw.Port(FloodPort),
		})
		def = fw.Allow
	}
	for i := 0; i < trailing; i++ {
		rules = append(rules, fw.NonMatchingRule(100+i))
	}
	return fw.NewRuleSet(def, rules...)
}

// vpgRuleSet builds a rule set with depth-1 non-matching VPG pairs above
// the matching VPG pair for the host at local, as the paper constructed
// its VPG depth sweeps.
func vpgRuleSet(depth int, local packet.IP, trailing int) (*fw.RuleSet, error) {
	var rules []fw.Rule
	for i := 1; i < depth; i++ {
		pad := packet.Prefix{Addr: packet.IP{203, 0, 113, byte(i)}, Bits: 32}
		rules = append(rules, fw.VPGRulePair(fmt.Sprintf("pad-%d", i), packet.IP{203, 0, 113, 200}, pad)...)
	}
	rules = append(rules, fw.VPGRulePair(VPGGroupName, local, packet.MustPrefix("10.0.0.0/24"))...)
	for i := 0; i < trailing; i++ {
		rules = append(rules, fw.NonMatchingRule(100+i))
	}
	return fw.NewRuleSet(fw.Deny, rules...)
}

// startFlood arms the scenario's flood (if any). By default the flood
// runs from t=0 and reaches steady state over a 200 ms settle before
// measurement; a FloodStart/FloodStop window instead gates it inside
// the measurement. With reg non-nil the flooder publishes its counter
// there — after the settle, or up front for a windowed flood.
func startFlood(tb *Testbed, s Scenario, reg *obs.Registry) (*measure.Flooder, error) {
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
	f := measure.NewFlooder(tb.Attacker, tb.Target.IP(), cfg)
	if s.FloodStart > 0 || s.FloodStop > 0 {
		if reg != nil {
			f.PublishMetrics(reg, obs.L("host", "attacker"))
		}
		tb.Kernel.After(s.FloodStart, f.Start)
		if s.FloodStop > s.FloodStart {
			tb.Kernel.After(s.FloodStop, f.Stop)
		}
		return f, nil
	}
	f.Start()
	if err := tb.Kernel.RunFor(200 * time.Millisecond); err != nil {
		return nil, err
	}
	if reg != nil {
		f.PublishMetrics(reg, obs.L("host", "attacker"))
	}
	return f, nil
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
// outcome. Profiled runs carry the merged cost-domain profile on the
// returned point (CostProfile) so experiment fan-outs can merge
// per-point profiles deterministically.
func RunBandwidthObserved(s Scenario, opt ObserveOptions) (BandwidthPoint, *Instrumentation, error) {
	return runBandwidth(s, &opt)
}

// runBandwidth is the one bandwidth body; opt nil runs unobserved.
func runBandwidth(s Scenario, opt *ObserveOptions) (BandwidthPoint, *Instrumentation, error) {
	tb, err := buildTestbed(s)
	if err != nil {
		return BandwidthPoint{}, nil, err
	}
	var inst *Instrumentation
	var reg *obs.Registry
	if opt != nil {
		inst = tb.observe(*opt)
		reg = inst.Registry
	}
	flood, err := startFlood(tb, s, reg)
	if err != nil {
		return BandwidthPoint{}, nil, err
	}

	cfg := measure.IperfConfig{Duration: s.Duration, Metrics: reg}
	var res measure.IperfResult
	if s.UseUDP {
		res, err = measure.RunUDPIperf(tb.Kernel, tb.Client, tb.Target, cfg)
	} else {
		res, err = measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, cfg)
	}
	if err != nil {
		return BandwidthPoint{}, nil, err
	}
	p := BandwidthPoint{
		Scenario:     s,
		Iperf:        res,
		TargetLocked: tb.Target.NIC().Locked(),
		TargetNIC:    tb.Target.NIC().Stats(),
		Attribution:  ruleAttribution(tb),
		SimSeconds:   tb.Kernel.Now().Seconds(),
		WallBusy:     tb.Kernel.WallBusy(),
	}
	if flood != nil {
		flood.Stop()
		p.FloodSent = flood.Sent()
	}
	if inst != nil {
		if inst.Profiling != nil {
			p.CostProfile = inst.Profiling.CostData()
		}
		// Final sample at the close of the measurement window.
		inst.Recorder.Sample()
		inst.Recorder.Stop()
	}
	return p, inst, nil
}

// RunHTTP executes an HTTP load scenario against a web server on the
// target.
func RunHTTP(s Scenario) (HTTPPoint, error) {
	tb, err := buildTestbed(s)
	if err != nil {
		return HTTPPoint{}, err
	}
	if err := setupHTTPServer(tb); err != nil {
		return HTTPPoint{}, err
	}
	flood, err := startFlood(tb, s, nil)
	if err != nil {
		return HTTPPoint{}, err
	}
	res, err := measure.RunHTTPLoad(tb.Kernel, tb.Client, tb.Target, measure.HTTPLoadConfig{
		Duration: s.Duration,
	})
	if err != nil {
		return HTTPPoint{}, err
	}
	if flood != nil {
		flood.Stop()
	}
	return HTTPPoint{
		Scenario:   s,
		Load:       res,
		SimSeconds: tb.Kernel.Now().Seconds(),
		WallBusy:   tb.Kernel.WallBusy(),
	}, nil
}
