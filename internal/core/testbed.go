// Package core implements the paper's contribution as a reusable
// library: the validation methodology for NIC-based distributed
// firewalls. It builds the four-host testbed (policy server, attacker,
// client, target on one 100 Mbps switch), runs the paper's measurement
// scenarios against a chosen firewall device, and searches for the
// minimum flood rate that causes denial of service.
package core

import (
	"fmt"

	"barbican/internal/fw"
	"barbican/internal/hostfw"
	"barbican/internal/link"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
	"barbican/internal/vpg"
)

// Well-known testbed addresses.
var (
	PolicyServerIP = packet.MustIP("10.0.0.10")
	AttackerIP     = packet.MustIP("10.0.0.66")
	ClientIP       = packet.MustIP("10.0.0.1")
	TargetIP       = packet.MustIP("10.0.0.2")
)

// TestbedOptions configures testbed construction.
type TestbedOptions struct {
	// ClientDevice and TargetDevice pick the NIC/firewall on the
	// measurement endpoints; zero means DeviceStandard.
	ClientDevice, TargetDevice Device
	// Seed makes runs reproducible; zero means 1.
	Seed int64
	// SuppressFloodResponses disables the target's RST/ICMP responses to
	// closed ports (ablation ABL1); real stacks respond.
	SuppressFloodResponses bool
	// EagerVPGDecrypt makes filtering cards decrypt sealed traffic
	// before rule matching (ablation ABL2); the real ADF is lazy.
	EagerVPGDecrypt bool
	// ConntrackEvict overrides the eviction policy of any conntrack-
	// equipped card built by this testbed (zero keeps the profile's
	// default). The stateflood experiments sweep this.
	ConntrackEvict conntrack.EvictPolicy
}

// Testbed is the paper's experimental network: four hosts on one
// 100 Mbps store-and-forward switch.
type Testbed struct {
	Kernel *sim.Kernel
	Switch *link.Switch

	PolicyServer *stack.Host
	Attacker     *stack.Host
	Client       *stack.Host
	Target       *stack.Host

	macs    map[packet.IP]packet.MAC
	devices map[*stack.Host]Device
	nextMAC byte
	eager   bool
	ctEvict conntrack.EvictPolicy
}

// onTestbed, when set, is handed every testbed NewTestbed builds. It is
// how the frame-pool law test reaches the testbeds of scenario entry
// points that keep theirs private; nothing else sets it.
var onTestbed func(*Testbed)

// NewTestbed builds the four-host testbed.
func NewTestbed(opts TestbedOptions) (*Testbed, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.ClientDevice == 0 {
		opts.ClientDevice = DeviceStandard
	}
	if opts.TargetDevice == 0 {
		opts.TargetDevice = DeviceStandard
	}
	k := sim.NewKernel(sim.WithSeed(opts.Seed))
	tb := &Testbed{
		Kernel:  k,
		Switch:  link.NewSwitch(k, link.SwitchConfig{Link: link.Config{QueueFrames: 512}}),
		macs:    make(map[packet.IP]packet.MAC),
		devices: make(map[*stack.Host]Device),
		eager:   opts.EagerVPGDecrypt,
		ctEvict: opts.ConntrackEvict,
	}
	var err error
	if tb.PolicyServer, err = tb.AddHost("policy-server", PolicyServerIP, DeviceStandard, !opts.SuppressFloodResponses); err != nil {
		return nil, err
	}
	if tb.Attacker, err = tb.AddHost("attacker", AttackerIP, DeviceStandard, !opts.SuppressFloodResponses); err != nil {
		return nil, err
	}
	if tb.Client, err = tb.AddHost("client", ClientIP, opts.ClientDevice, !opts.SuppressFloodResponses); err != nil {
		return nil, err
	}
	if tb.Target, err = tb.AddHost("target", TargetIP, opts.TargetDevice, !opts.SuppressFloodResponses); err != nil {
		return nil, err
	}
	if onTestbed != nil {
		onTestbed(tb)
	}
	return tb, nil
}

// AddHost attaches an additional host to the switch (the testbed's four
// standard hosts are created automatically).
func (tb *Testbed) AddHost(name string, ip packet.IP, device Device, respond bool) (*stack.Host, error) {
	if _, dup := tb.macs[ip]; dup {
		return nil, fmt.Errorf("core: duplicate host address %v", ip)
	}
	tb.nextMAC++
	mac := packet.MAC{0x02, 0x42, 0, 0, 0, tb.nextMAC}
	tb.macs[ip] = mac

	spec, ok := device.spec()
	if !ok {
		return nil, fmt.Errorf("core: unknown device %v", device)
	}
	profile := spec.card()
	// Only the VPG-capable card (the ADF) has sealed traffic to decrypt
	// eagerly.
	if profile.CryptoPerPacket > 0 {
		profile.EagerVPGDecrypt = tb.eager
	}
	var fwall *hostfw.Firewall
	if spec.hostFW != nil {
		fwall = hostfw.New(tb.Kernel, spec.hostFW())
	}
	if profile.ConntrackEntries > 0 && tb.ctEvict != 0 {
		profile.ConntrackEvict = tb.ctEvict
	}

	card := nic.New(tb.Kernel, mac, profile, tb.Switch.NewPort())
	h, err := stack.NewHost(tb.Kernel, stack.Config{
		Name: name,
		IP:   ip,
		NIC:  card,
		// Every host resolves neighbors from the testbed's static
		// table, so measurements exclude neighbor-discovery warmup.
		Resolve: func(ip packet.IP) (packet.MAC, bool) {
			m, ok := tb.macs[ip]
			return m, ok
		},
		Firewall:        fwall,
		RespondToFloods: respond,
	})
	if err != nil {
		return nil, err
	}
	tb.devices[h] = device
	return h, nil
}

// InstallPolicy installs a rule set on the host's enforcement point: the
// host firewall for a device that has one (iptables), the NIC
// otherwise. A nil rule set removes filtering.
func (tb *Testbed) InstallPolicy(h *stack.Host, rs *fw.RuleSet) {
	if spec, _ := tb.devices[h].spec(); spec.hostFW != nil {
		h.Firewall().Install(rs)
		return
	}
	h.NIC().InstallRuleSet(rs)
}

// SetupVPG creates a group containing the given hosts and provisions it
// on each host's card.
func (tb *Testbed) SetupVPG(name, passphrase string, members ...*stack.Host) (*vpg.Group, error) {
	ips := make([]packet.IP, len(members))
	for i, m := range members {
		ips[i] = m.IP()
	}
	g, err := vpg.NewGroup(name, vpg.DeriveKey(passphrase), ips...)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := m.NIC().InstallGroup(g, m.IP()); err != nil {
			return nil, err
		}
	}
	return g, nil
}
