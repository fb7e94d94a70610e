// Policy rollout: the central policy server distributes 3Com's
// recommended Oracle-server protection (31+ rules) to a fleet of
// EFW-protected hosts over the network, with signed pushes and an audit
// log — then demonstrates the paper's operational lesson: a useful
// policy is deep, and depth costs bandwidth.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/packet"
	"barbican/internal/policy"
	"barbican/internal/stack"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW})
	if err != nil {
		return err
	}
	db, err := tb.AddHost("oracle-db", packet.MustIP("10.0.0.3"), core.DeviceEFW, true)
	if err != nil {
		return err
	}

	psk := policy.DeriveKey("dpasa")
	srv := policy.NewServer(tb.PolicyServer, psk)

	fleet := []struct {
		name  string
		host  *stack.Host
		agent *policy.Agent
	}{{name: "oracle-db", host: db}, {name: "target", host: tb.Target}}
	for i := range fleet {
		if fleet[i].agent, err = policy.NewAgent(fleet[i].host, tb.PolicyServer.IP(), psk); err != nil {
			return err
		}
	}

	// Baseline: unfiltered bandwidth to the target.
	before, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{Duration: time.Second})
	if err != nil {
		return err
	}

	// Author one policy centrally, push it to the fleet. The iperf
	// rules ride on top of the recommended Oracle protection.
	oracle := "allow in proto tcp from 10.0.0.1/32 to any port 5001 # iperf\n" +
		"allow out proto tcp from any port 5001 to 10.0.0.1/32\n" + policy.OraclePolicy
	for _, m := range fleet {
		if _, err := srv.SetPolicy(m.name, oracle); err != nil {
			return err
		}
		if err := srv.Push(m.name, m.host.IP(), nil); err != nil {
			return err
		}
	}
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		return err
	}

	fmt.Fprintln(w, "== audit log ==")
	for _, e := range srv.Audit() {
		fmt.Fprintln(w, " ", e)
	}
	for _, m := range fleet {
		fmt.Fprintf(w, "%s: enforcing v%d\n", m.name, m.agent.InstalledVersion())
	}

	// The same measurement now traverses a 30+ rule policy on the card.
	after, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{Duration: time.Second})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbandwidth before policy: %5.1f Mbps\n", before.Mbps)
	fmt.Fprintf(w, "bandwidth after rollout: %5.1f Mbps (iperf allowed at rule 1)\n", after.Mbps)
	fmt.Fprintln(w, "\nThe paper's point: real policies (Oracle needs 31+ rules) put")
	fmt.Fprintln(w, "performance-sensitive traffic deep in the rule-set unless ordered carefully.")
	return nil
}
