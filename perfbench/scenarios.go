package main

import (
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// scenario is one built simulation, ready to run once.
type scenario struct {
	tb    *core.Testbed
	flood *measure.Flooder // nil when the workload floods nothing
	// end is the virtual time at which the run finishes.
	end time.Duration
	run func() error

	iperf   measure.IperfResult
	session sessionResult
}

// sessionResult is the probe session's record over the flooded window,
// counted as core.RunStateflood counts it.
type sessionResult struct {
	sent, echoed uint64
	reset        bool
}

// buildFloodWalk mirrors core.RunBandwidth for EFW at depth 64 under an
// allowed 8 kpps flood.
func buildFloodWalk(seed int64, window time.Duration) (*scenario, error) {
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW, Seed: seed})
	if err != nil {
		return nil, err
	}
	rules, err := core.StandardRuleSet(floodWalkDepth, true)
	if err != nil {
		return nil, err
	}
	tb.InstallPolicy(tb.Target, rules)
	sc := &scenario{
		tb:    tb,
		flood: measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{RatePPS: floodWalkPPS, DstPort: core.FloodPort}),
		end:   floodSettle + window + iperfDrain,
	}
	sc.run = func() error {
		sc.flood.Start()
		if err := tb.Kernel.RunFor(floodSettle); err != nil {
			return err
		}
		return sc.runIperf(window)
	}
	return sc, nil
}

// buildVPGBulk mirrors core.RunBandwidth for ADF (VPG) at depth 1: both
// ends hold the group key and only the matching VPG rule pair.
func buildVPGBulk(seed int64, window time.Duration) (*scenario, error) {
	tb, err := core.NewTestbed(core.TestbedOptions{
		ClientDevice: core.DeviceADFVPG,
		TargetDevice: core.DeviceADFVPG,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tb.SetupVPG(core.VPGGroupName, vpgPassphrase, tb.Client, tb.Target); err != nil {
		return nil, err
	}
	for _, h := range []*stack.Host{tb.Target, tb.Client} {
		rules, err := fw.NewRuleSet(fw.Deny, fw.VPGRulePair(core.VPGGroupName, h.IP(), packet.MustPrefix("10.0.0.0/24"))...)
		if err != nil {
			return nil, err
		}
		tb.InstallPolicy(h, rules)
	}
	sc := &scenario{tb: tb, end: window + iperfDrain}
	sc.run = func() error { return sc.runIperf(window) }
	return sc, nil
}

// runIperf measures TCP goodput from client to target for window, then
// stops the flood, as core.RunBandwidth does.
func (sc *scenario) runIperf(window time.Duration) error {
	res, err := measure.RunTCPIperf(sc.tb.Kernel, sc.tb.Client, sc.tb.Target, measure.IperfConfig{Duration: window})
	if err != nil {
		return err
	}
	sc.iperf = res
	if sc.flood != nil {
		sc.flood.Stop()
	}
	return nil
}

// buildSYNChurn mirrors core.RunStateflood for the StatefulFW card at
// depth 64 under a 20 kpps SYN flood from 255 spoofed sources.
func buildSYNChurn(seed int64, window time.Duration) (*scenario, error) {
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceStateful, Seed: seed})
	if err != nil {
		return nil, err
	}
	rules, err := core.StatefulRuleSet(synChurnDepth)
	if err != nil {
		return nil, err
	}
	tb.InstallPolicy(tb.Target, rules)
	if _, err := tb.Target.ListenTCP(core.StatefloodEchoPort, func(c *stack.Conn) {
		c.OnData = func(b []byte) { _ = c.Write(append([]byte(nil), b...)) }
	}); err != nil {
		return nil, err
	}
	spoof := make([]packet.IP, synChurnSources)
	for i := range spoof {
		// RFC 2544's benchmarking range, as core's stateflood pool.
		spoof[i] = packet.IP{198, 18, byte(i / 254), byte(1 + i%254)}
	}
	sc := &scenario{
		tb: tb,
		flood: measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
			Kind:         measure.FloodTCPSYN,
			RatePPS:      synChurnPPS,
			DstPort:      core.StatefloodEchoPort,
			SpoofSources: spoof,
		}),
		end: sessionHandshake + 2*keepaliveEvery + floodSettle + window + sessionDrain,
	}
	sc.run = func() error { return sc.runSession(window) }
	return sc, nil
}

// runSession opens the probe session, lets it settle, floods for window
// and drains, counting keepalives and echoes as core.RunStateflood does.
func (sc *scenario) runSession(window time.Duration) error {
	k := sc.tb.Kernel
	conn, err := sc.tb.Client.DialTCP(sc.tb.Target.IP(), core.StatefloodEchoPort)
	if err != nil {
		return err
	}
	es := &echoSession{conn: conn}
	conn.OnConnect = func() { es.connected = true }
	conn.OnData = func(b []byte) { es.echoBytes += uint64(len(b)) }
	conn.OnReset = func() { es.reset = true }
	if err := k.RunFor(sessionHandshake); err != nil {
		return err
	}
	es.keepalive(k)
	if err := k.RunFor(2 * keepaliveEvery); err != nil {
		return err
	}
	sc.flood.Start()
	if err := k.RunFor(floodSettle); err != nil {
		return err
	}
	sent0, echo0 := es.sent, es.echoed()
	if err := k.RunFor(window); err != nil {
		return err
	}
	sent1 := es.sent
	es.stopped = true
	sc.flood.Stop()
	if err := k.RunFor(sessionDrain); err != nil {
		return err
	}
	sc.session = sessionResult{sent: sent1 - sent0, reset: es.reset}
	if echoed := es.echoed(); echoed > echo0 {
		sc.session.echoed = min(echoed-echo0, sc.session.sent)
	}
	return nil
}

// echoSession is the sparse keepalive TCP session that competes with the
// SYN flood for conntrack entries.
type echoSession struct {
	conn      *stack.Conn
	connected bool
	reset     bool
	stopped   bool
	sent      uint64
	echoBytes uint64
}

func (es *echoSession) echoed() uint64 { return es.echoBytes / echoMsgBytes }

// keepalive sends one keepalive every keepaliveEvery until stopped. A
// write on a dead connection still counts as sent: the echo count is
// what decides whether the session survived.
func (es *echoSession) keepalive(k *sim.Kernel) {
	var tick func(any)
	tick = func(any) {
		if es.stopped {
			return
		}
		if es.connected && !es.reset {
			es.sent++
			_ = es.conn.Write(make([]byte, echoMsgBytes))
		}
		k.AfterCall(keepaliveEvery, tick, nil)
	}
	k.AfterCall(keepaliveEvery, tick, nil)
}
