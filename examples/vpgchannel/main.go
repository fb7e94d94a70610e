// VPG channel: two ADF-protected hosts communicate through a virtual
// private group. Traffic is sealed on the wire (confidentiality +
// integrity + sender authentication), and cleartext from a non-member
// is denied at the card.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
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
		fmt.Fprintf(w, "subscriber received %q from %v (delivered in cleartext)\n", payload, src)
	}
	pub, err := tb.Client.BindUDP(0)
	if err != nil {
		return err
	}
	pub.SendTo(tb.Target.IP(), 7000, []byte("sensor reading 42"))
	if err := tb.Kernel.RunUntil(100 * time.Millisecond); err != nil {
		return err
	}
	fmt.Fprintf(w, "client card sealed %d frame(s); target card opened %d\n",
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
	fmt.Fprintf(w, "attacker cleartext injection: %d denied at the target card\n",
		tb.Target.NIC().Stats().RxDrops[tracing.DropRuleDeny])
	return nil
}
