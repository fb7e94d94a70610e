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

// Device identifies a firewall configuration under validation.
type Device int

// Devices the methodology knows how to build.
const (
	// DeviceStandard is the non-filtering control NIC (Intel EEPro 100).
	DeviceStandard Device = iota + 1
	// DeviceEFW is the 3Com Embedded Firewall.
	DeviceEFW
	// DeviceADF is the Autonomic Distributed Firewall with standard rules.
	DeviceADF
	// DeviceADFVPG is the ADF enforcing virtual private groups.
	DeviceADFVPG
	// DeviceIPTables is the software-firewall baseline: a standard NIC
	// with filtering in the host.
	DeviceIPTables
	// DeviceNextGen is the hypothetical flood-tolerant card of the
	// paper's conclusion (extension experiment EXT1).
	DeviceNextGen
	// DeviceStateful is the NextGen card with connection tracking: the
	// compiled/cached fast path plus a hard-bounded conntrack table in
	// card SRAM (extension experiment EXT4, the stateflood family).
	DeviceStateful
)

// String names the device as in the paper's figures.
func (d Device) String() string {
	switch d {
	case DeviceStandard:
		return "Standard NIC"
	case DeviceEFW:
		return "EFW"
	case DeviceADF:
		return "ADF"
	case DeviceADFVPG:
		return "ADF (VPG)"
	case DeviceIPTables:
		return "iptables"
	case DeviceNextGen:
		return "NextGenFW"
	case DeviceStateful:
		return "StatefulFW"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// Devices returns all devices, in presentation order.
func Devices() []Device {
	return []Device{DeviceStandard, DeviceIPTables, DeviceEFW, DeviceADF, DeviceADFVPG}
}

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
	// UseARP makes hosts resolve neighbors over the wire instead of the
	// default static table. Experiments default to static resolution so
	// measurements exclude neighbor-discovery warmup.
	UseARP bool
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
	useARP  bool
	ctEvict conntrack.EvictPolicy
}

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
		useARP:  opts.UseARP,
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

	var profile nic.Profile
	var fwall *hostfw.Firewall
	switch device {
	case DeviceStandard, DeviceIPTables:
		profile = nic.Standard()
	case DeviceEFW:
		profile = nic.EFW()
	case DeviceADF, DeviceADFVPG:
		profile = nic.ADF()
		profile.EagerVPGDecrypt = tb.eager
	case DeviceNextGen:
		profile = nic.NextGen()
	case DeviceStateful:
		profile = nic.Stateful()
	default:
		return nil, fmt.Errorf("core: unknown device %v", device)
	}
	if device == DeviceIPTables {
		fwall = hostfw.New(tb.Kernel, hostfw.IPTables())
	}
	if profile.ConntrackEntries > 0 && tb.ctEvict != 0 {
		profile.ConntrackEvict = tb.ctEvict
	}

	card := nic.New(tb.Kernel, mac, profile, tb.Switch.NewPort())
	var resolve stack.Resolver
	if !tb.useARP {
		resolve = func(ip packet.IP) (packet.MAC, bool) {
			m, ok := tb.macs[ip]
			return m, ok
		}
	}
	h, err := stack.NewHost(tb.Kernel, stack.Config{
		Name:            name,
		IP:              ip,
		NIC:             card,
		Resolve:         resolve,
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
// host firewall for DeviceIPTables, the NIC otherwise. A nil rule set
// removes filtering.
func (tb *Testbed) InstallPolicy(h *stack.Host, rs *fw.RuleSet) {
	if tb.devices[h] == DeviceIPTables {
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
