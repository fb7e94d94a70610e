package core

import (
	"fmt"
	"strings"

	"barbican/internal/hostfw"
	"barbican/internal/nic"
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

// deviceSpec is one row of the device table.
type deviceSpec struct {
	// name is the device's command-line name; aliases are accepted
	// too. Both match case-insensitively.
	name    string
	aliases []string
	// label names the device as in the paper's figures.
	label string
	// card builds the card the device puts on its host.
	card func() nic.Profile
	// hostFW, when non-nil, builds the host firewall that enforces the
	// device's rules instead of its card (iptables, behind a standard
	// card).
	hostFW func() nic.Profile
}

// devices is the one table of devices, indexed by Device: every name a
// command line accepts, every figure label, every card profile and
// every host firewall profile.
var devices = [...]deviceSpec{
	DeviceStandard: {"standard", []string{"none"}, "Standard NIC", nic.Standard, nil},
	DeviceEFW:      {"efw", nil, "EFW", nic.EFW, nil},
	DeviceADF:      {"adf", nil, "ADF", nic.ADF, nil},
	DeviceADFVPG:   {"vpg", []string{"adf-vpg"}, "ADF (VPG)", nic.ADF, nil},
	DeviceIPTables: {"iptables", nil, "iptables", nic.Standard, hostfw.IPTables},
	DeviceNextGen:  {"nextgen", nil, "NextGenFW", nic.NextGen, nil},
	DeviceStateful: {"stateful", nil, "StatefulFW", nic.Stateful, nil},
}

// spec returns d's table row; ok is false for a value outside the table.
func (d Device) spec() (s deviceSpec, ok bool) {
	if d < DeviceStandard || int(d) >= len(devices) {
		return deviceSpec{}, false
	}
	return devices[d], true
}

// String names the device as in the paper's figures.
func (d Device) String() string {
	if s, ok := d.spec(); ok {
		return s.label
	}
	return fmt.Sprintf("device(%d)", int(d))
}

// Profile returns the calibrated profile of the device's
// rule-enforcement point, the one that prices its rules: the host
// firewall's for iptables, the card's otherwise. It returns the zero
// Profile for a value outside the table.
func (d Device) Profile() nic.Profile {
	s, ok := d.spec()
	switch {
	case !ok:
		return nic.Profile{}
	case s.hostFW != nil:
		return s.hostFW()
	}
	return s.card()
}

// ParseDevice maps a command-line device name or alias to its device,
// case-insensitively.
func ParseDevice(name string) (Device, error) {
	lower := strings.ToLower(name)
	for d := DeviceStandard; int(d) < len(devices); d++ {
		s := devices[d]
		if lower == s.name {
			return d, nil
		}
		for _, a := range s.aliases {
			if lower == a {
				return d, nil
			}
		}
	}
	return 0, fmt.Errorf("unknown device %q (%s)", name, DeviceNames())
}

// DeviceNames lists every device's command-line name in table order,
// separated by "|", for flag help and errors.
func DeviceNames() string {
	names := make([]string, 0, len(devices)-1)
	for _, s := range devices[DeviceStandard:] {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}
