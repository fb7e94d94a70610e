// Policy rollout: the central policy server distributes 3Com's
// recommended Oracle-server protection (31+ rules) to a fleet of
// EFW-protected hosts over the network, with signed pushes and an audit
// log — then demonstrates the paper's operational lesson: a useful
// policy is deep, and depth costs bandwidth.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/packet"
	"barbican/internal/policy"
	"barbican/internal/stack"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
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

	agents := map[string]*policy.Agent{}
	for name, h := range map[string]*stack.Host{"target": tb.Target, "oracle-db": db} {
		agent, err := policy.NewAgent(h, tb.PolicyServer.IP(), psk)
		if err != nil {
			return err
		}
		agents[name] = agent
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
	for name := range agents {
		if _, err := srv.SetPolicy(name, oracle); err != nil {
			return err
		}
	}
	for name, h := range map[string]packet.IP{"target": tb.Target.IP(), "oracle-db": db.IP()} {
		if err := srv.Push(name, h, nil); err != nil {
			return err
		}
	}
	if err := tb.Kernel.RunFor(time.Second); err != nil {
		return err
	}

	fmt.Println("== audit log ==")
	for _, e := range srv.Audit() {
		fmt.Println(" ", e)
	}
	enforcing := make([]string, 0, len(agents))
	for name := range agents {
		enforcing = append(enforcing, name)
	}
	sort.Strings(enforcing)
	for _, name := range enforcing {
		fmt.Printf("%s: enforcing v%d\n", name, agents[name].InstalledVersion())
	}

	// The same measurement now traverses a 30+ rule policy on the card.
	after, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{Duration: time.Second})
	if err != nil {
		return err
	}
	fmt.Printf("\nbandwidth before policy: %5.1f Mbps\n", before.Mbps)
	fmt.Printf("bandwidth after rollout: %5.1f Mbps (iperf allowed at rule 1)\n", after.Mbps)
	fmt.Println("\nThe paper's point: real policies (Oracle needs 31+ rules) put")
	fmt.Println("performance-sensitive traffic deep in the rule-set unless ordered carefully.")
	return nil
}
