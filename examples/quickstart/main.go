// Quickstart: build the paper's testbed, enforce a policy on an
// EFW-protected host, and measure available bandwidth — the library's
// core loop in ~40 lines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/policy"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The testbed is the paper's: policy server, attacker, client, and
	// target on one 100 Mbps switch. The target gets a 3Com EFW card.
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW})
	if err != nil {
		return err
	}

	// Policies are plain text; the card enforces first-match semantics.
	rs, err := policy.Parse(`
allow in proto tcp from any to 10.0.0.2/32 port 5001   # iperf server
allow out proto tcp from 10.0.0.2/32 port 5001 to any
deny in proto icmp from any to any
default deny
`)
	if err != nil {
		return err
	}
	tb.InstallPolicy(tb.Target, rs)

	// Measure TCP goodput from client to target with the iperf tool.
	res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bandwidth through the EFW: %v\n", res)

	// The card kept per-rule statistics while we measured.
	evals, perRule, defHits := rs.Stats()
	fmt.Fprintf(w, "card evaluated %d packets (per-rule matches %v, default hits %d)\n",
		evals, perRule, defHits)
	return nil
}
