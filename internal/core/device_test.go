package core

import (
	"strings"
	"testing"

	"barbican/internal/hostfw"
	"barbican/internal/nic"
)

// TestDeviceTable pins the one device table: every device round-trips
// through its command-line name and aliases in any case, prints its
// figure label, prices its rules with its enforcement point's profile
// (the host firewall's for iptables), and NewTestbed puts the card the
// table names on a host of that device (plus the host firewall for
// iptables, and the eager VPG override on the ADF only).
func TestDeviceTable(t *testing.T) {
	tests := []struct {
		device  Device
		name    string
		aliases []string
		label   string
		card    nic.Profile
		hostFW  bool
	}{
		{DeviceStandard, "standard", []string{"none"}, "Standard NIC", nic.Standard(), false},
		{DeviceEFW, "efw", nil, "EFW", nic.EFW(), false},
		{DeviceADF, "adf", nil, "ADF", nic.ADF(), false},
		{DeviceADFVPG, "vpg", []string{"adf-vpg"}, "ADF (VPG)", nic.ADF(), false},
		{DeviceIPTables, "iptables", nil, "iptables", nic.Standard(), true},
		{DeviceNextGen, "nextgen", nil, "NextGenFW", nic.NextGen(), false},
		{DeviceStateful, "stateful", nil, "StatefulFW", nic.Stateful(), false},
	}
	if got, want := len(tests), len(devices)-1; got != want {
		t.Fatalf("test covers %d devices, table holds %d", got, want)
	}
	var names []string
	for _, tt := range tests {
		names = append(names, tt.name)
		t.Run(tt.name, func(t *testing.T) {
			for _, give := range append([]string{tt.name, strings.ToUpper(tt.name)}, tt.aliases...) {
				if got, err := ParseDevice(give); err != nil || got != tt.device {
					t.Errorf("ParseDevice(%q) = %v, %v; want %v", give, got, err, tt.device)
				}
			}
			if got := tt.device.String(); got != tt.label {
				t.Errorf("String() = %q, want %q", got, tt.label)
			}
			enforce := tt.card
			if tt.hostFW {
				enforce = hostfw.IPTables()
			}
			if got := tt.device.Profile(); got != enforce {
				t.Errorf("Profile() = %+v, want %+v", got, enforce)
			}
			for _, eager := range []bool{false, true} {
				tb, err := NewTestbed(TestbedOptions{TargetDevice: tt.device, EagerVPGDecrypt: eager})
				if err != nil {
					t.Fatal(err)
				}
				want := tt.card
				want.EagerVPGDecrypt = eager && tt.card.Name == "ADF"
				if got := tb.Target.NIC().Profile(); got != want {
					t.Errorf("eager=%v: target card = %+v, want %+v", eager, got, want)
				}
				if got := tb.Target.Firewall() != nil; got != tt.hostFW {
					t.Errorf("eager=%v: host firewall = %v, want %v", eager, got, tt.hostFW)
				} else if got && tb.Target.Firewall().Profile() != enforce {
					t.Errorf("eager=%v: host firewall = %+v, want %+v", eager, tb.Target.Firewall().Profile(), enforce)
				}
			}
		})
	}
	if got, want := DeviceNames(), strings.Join(names, "|"); got != want {
		t.Errorf("DeviceNames() = %q, want %q", got, want)
	}
	for _, give := range []string{"3com", "", "ADF (VPG)"} {
		_, err := ParseDevice(give)
		if err == nil || !strings.Contains(err.Error(), DeviceNames()) {
			t.Errorf("ParseDevice(%q) error = %v, want one listing %s", give, err, DeviceNames())
		}
	}
	if got := Device(99).String(); got != "device(99)" {
		t.Errorf("Device(99).String() = %q", got)
	}
	if got := Device(99).Profile(); got != (nic.Profile{}) {
		t.Errorf("Device(99).Profile() = %+v, want the zero profile", got)
	}
}
