// VPG channel: two ADF-protected hosts communicate through a virtual
// private group. Traffic is sealed on the wire (confidentiality +
// integrity + sender authentication); cleartext from a non-member is
// denied, and a forged envelope fails authentication at the card.
package main

import (
	"fmt"
	"log"
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/packet"
	"barbican/internal/vpg"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tb, err := core.NewTestbed(core.TestbedOptions{
		ClientDevice: core.DeviceADF,
		TargetDevice: core.DeviceADF,
	})
	if err != nil {
		return err
	}

	// Provision the group on both members and install VPG-only policies.
	if _, err := tb.SetupVPG("psq", "darpa-challenge", tb.Client, tb.Target); err != nil {
		return err
	}
	prefix := packet.MustPrefix("10.0.0.0/24")
	tb.InstallPolicy(tb.Client, fw.MustRuleSet(fw.Deny,
		fw.VPGRulePair("psq", tb.Client.IP(), prefix)...))
	tb.InstallPolicy(tb.Target, fw.MustRuleSet(fw.Deny,
		fw.VPGRulePair("psq", tb.Target.IP(), prefix)...))

	// A UDP "publish" from client to target: sealed by the client card,
	// opened by the target card, delivered in clear to the application.
	sub, err := tb.Target.BindUDP(7000)
	if err != nil {
		return err
	}
	sub.OnRecv = func(src packet.IP, srcPort uint16, payload []byte) {
		fmt.Printf("subscriber received %q from %v (delivered in cleartext)\n", payload, src)
	}
	pub, err := tb.Client.BindUDP(0)
	if err != nil {
		return err
	}
	pub.SendTo(tb.Target.IP(), 7000, []byte("sensor reading 42"))
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("client card sealed %d frame(s); target card opened %d\n",
		tb.Client.NIC().Stats().Sealed, tb.Target.NIC().Stats().Opened)

	// The attacker tries cleartext: denied by the VPG-only policy.
	atk, err := tb.Attacker.BindUDP(0)
	if err != nil {
		return err
	}
	atk.SendTo(tb.Target.IP(), 7000, []byte("evil injection"))
	if err := tb.Kernel.RunFor(100 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("attacker cleartext injection: %d denied at the target card\n",
		tb.Target.NIC().Stats().RxDenied)

	// The attacker forges a sealed envelope with a guessed key: the
	// card's HMAC check rejects it.
	forged, err := vpg.NewGroup("psq", vpg.DeriveKey("wrong-guess"), tb.Attacker.IP(), tb.Target.IP())
	if err != nil {
		return err
	}
	env, err := forged.Seal(nil, tb.Attacker.IP(), tb.Target.IP(), packet.ProtoUDP, []byte("forged"), 1)
	if err != nil {
		return err
	}
	outer := packet.NewDatagram(tb.Attacker.IP(), tb.Target.IP(), packet.ProtoVPGEncap, 1, env)
	tb.Attacker.InjectSealed(outer)
	if err := tb.Kernel.RunFor(100 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("forged envelope: %d authentication failures at the target card\n",
		tb.Target.NIC().Stats().RxAuthFailures)
	return nil
}
