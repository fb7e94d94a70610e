package policy_test

import (
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/policy"
	"barbican/internal/stack"
	"barbican/internal/vpg"
)

// vpgFleet provisions a VPG across client and target entirely through
// the policy server, as the ADF deployment model prescribes.
func vpgFleet(t *testing.T) (*core.Testbed, *policy.Server, map[string]*policy.Agent) {
	t.Helper()
	tb, err := core.NewTestbed(core.TestbedOptions{
		ClientDevice: core.DeviceADF, TargetDevice: core.DeviceADF,
	})
	if err != nil {
		t.Fatal(err)
	}
	psk := policy.DeriveKey("dpasa")
	srv := policy.NewServer(tb.PolicyServer, psk)
	key := vpg.DeriveKey("group-secret")
	members := []packet.IP{tb.Client.IP(), tb.Target.IP()}

	agents := make(map[string]*policy.Agent, 2)
	for name, h := range map[string]*stack.Host{"client": tb.Client, "target": tb.Target} {
		agent, err := policy.NewAgent(h, tb.PolicyServer.IP(), psk)
		if err != nil {
			t.Fatal(err)
		}
		agents[name] = agent
		if _, err := srv.SetPolicy(name, policyText(h.IP())); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.SetVPG(name, "psq", key, members); err != nil {
			t.Fatal(err)
		}
		if err := srv.Push(name, h.IP(), func(err error) {
			if err != nil {
				t.Errorf("push %s: %v", name, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tb, srv, agents
}

func policyText(local packet.IP) string {
	ip := local.String()
	return "allow in vpg psq from 10.0.0.0/24 to " + ip + "/32\n" +
		"allow out vpg psq from " + ip + "/32 to 10.0.0.0/24\n" +
		"default deny\n"
}

func TestVPGProvisionedOverPolicyChannel(t *testing.T) {
	tb, _, agents := vpgFleet(t)
	for name, a := range agents {
		if a.InstalledVersion() != 2 { // SetPolicy + SetVPG each bump
			t.Errorf("%s version = %d, want 2", name, a.InstalledVersion())
		}
		groups := a.InstalledGroups()
		if len(groups) != 1 || groups[0] != "psq" {
			t.Errorf("%s groups = %v", name, groups)
		}
	}

	// Member traffic flows sealed end to end.
	sink, err := tb.Target.BindUDP(7000)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sink.OnRecv = func(packet.IP, uint16, []byte) { delivered++ }
	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(tb.Target.IP(), 7000, []byte("provisioned"))
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d through provisioned VPG", delivered)
	}
	if tb.Client.NIC().Stats().Sealed == 0 || tb.Target.NIC().Stats().Opened == 0 {
		t.Error("traffic was not sealed despite provisioned VPG")
	}

	// Outsider cleartext is denied.
	atk, err := tb.Attacker.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	atk.SendTo(tb.Target.IP(), 7000, []byte("evil"))
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Error("outsider traffic delivered")
	}
}

func TestVPGRekeyOverPolicyChannel(t *testing.T) {
	tb, srv, agents := vpgFleet(t)
	members := []packet.IP{tb.Client.IP(), tb.Target.IP()}

	// Rotate the group key on the target only: traffic must now fail
	// authentication (key mismatch between members) until the client is
	// also rekeyed.
	newKey := vpg.DeriveKey("rotated")
	if _, err := srv.SetVPG("target", "psq", newKey, members); err != nil {
		t.Fatal(err)
	}
	if err := srv.Push("target", tb.Target.IP(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if agents["target"].InstalledVersion() != 3 {
		t.Fatalf("target version = %d", agents["target"].InstalledVersion())
	}

	sink, err := tb.Target.BindUDP(7100)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sink.OnRecv = func(packet.IP, uint16, []byte) { delivered++ }
	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	authBefore := tb.Target.NIC().Stats().RxDrops[tracing.DropAuthFail]
	sock.SendTo(tb.Target.IP(), 7100, []byte("stale-key"))
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("stale-key traffic delivered after rekey")
	}
	if tb.Target.NIC().Stats().RxDrops[tracing.DropAuthFail] != authBefore+1 {
		t.Errorf("rx auth-fail drops = %d, want +1", tb.Target.NIC().Stats().RxDrops[tracing.DropAuthFail])
	}

	// Rekey the client too: traffic flows again.
	if _, err := srv.SetVPG("client", "psq", newKey, members); err != nil {
		t.Fatal(err)
	}
	if err := srv.Push("client", tb.Client.IP(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	sock.SendTo(tb.Target.IP(), 7100, []byte("fresh-key"))
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d after both sides rekeyed", delivered)
	}
}

func TestSetVPGValidation(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := policy.NewServer(tb.PolicyServer, policy.DeriveKey("k"))
	key := vpg.DeriveKey("k")
	if _, err := srv.SetVPG("nobody", "g", key, []packet.IP{core.TargetIP}); err == nil {
		t.Error("SetVPG without stored policy accepted")
	}
	if _, err := srv.SetPolicy("dev", "default deny\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetVPG("dev", "", key, []packet.IP{core.TargetIP}); err == nil {
		t.Error("empty group name accepted")
	}
	if _, err := srv.SetVPG("dev", "g", key, nil); err == nil {
		t.Error("memberless group accepted")
	}
}
