package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/policy"
)

// runExplain implements `barbican explain`: replay one hypothetical
// packet against a rule set on a device's enforcement point and print
// the matched rule, the depth walked, and the predicted per-stage cost.
// The output is a pure function of the flags — no clocks, no map
// iteration — so identical invocations are byte-identical.
func runExplain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("barbican explain", flag.ContinueOnError)
	device := fs.String("device", "efw", "device whose enforcement point (card, or host firewall for iptables) prices the packet: "+core.DeviceNames())
	depth := fs.Int("depth", 64, "synthetic rule-set depth (paper shape: depth-1 non-matching rules above the action rule); 0 = no policy")
	deny := fs.Bool("deny", false, "synthetic action rule denies the flood signature (default: allows everything)")
	stateful := fs.Bool("stateful", false, "use the stateful synthetic rule set (new-to-service + established/related) instead of the stateless one")
	policyFile := fs.String("policy", "", "explain against this policy file ('-' = built-in example) instead of the synthetic rule set")
	proto := fs.String("proto", "tcp", "packet protocol: tcp|udp|icmp")
	src := fs.String("src", core.ClientIP.String(), "source IP")
	dst := fs.String("dst", core.TargetIP.String(), "destination IP")
	sport := fs.Int("sport", 40000, "source port (tcp/udp)")
	dport := fs.Int("dport", 5001, "destination port (tcp/udp)")
	size := fs.Int("size", 40, "IP datagram length in bytes")
	dir := fs.String("dir", "in", "direction through the card: in|out")
	sealed := fs.Bool("sealed", false, "packet arrives in a VPG envelope")
	tcpFlags := fs.String("flags", "", "tcp control bits, comma-separated: syn|ack|fin|rst|psh|none (default syn)")
	prior := fs.String("prior", "none", "assumed prior conntrack history of the flow: none|new|established")
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: barbican explain [flags]")
		fmt.Fprintln(fs.Output(), "replay one packet against a rule set; print matched rule, depth walked, predicted cost")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	dev, err := core.ParseDevice(*device)
	if err != nil {
		return err
	}
	profile := dev.Profile()

	var rs *fw.RuleSet
	switch {
	case *policyFile != "":
		var text string
		if *policyFile == "-" {
			text = policy.OraclePolicy
		} else {
			b, rerr := os.ReadFile(*policyFile)
			if rerr != nil {
				return rerr
			}
			text = string(b)
		}
		if rs, err = policy.Parse(text); err != nil {
			return err
		}
	case *depth > 0 && *stateful:
		if rs, err = core.StatefulRuleSet(*depth); err != nil {
			return err
		}
	case *depth > 0:
		if rs, err = core.StandardRuleSet(*depth, !*deny); err != nil {
			return err
		}
	}

	switch *prior {
	case "none", "new", "established":
	default:
		return fmt.Errorf("unknown prior %q (none|new|established)", *prior)
	}

	spec := nic.PacketSpec{
		Proto: *proto, Src: *src, Dst: *dst,
		SrcPort: *sport, DstPort: *dport,
		Size: *size, Dir: *dir, Sealed: *sealed,
		Flags: *tcpFlags,
	}
	summary, fdir, err := spec.Summary()
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, nic.Explain(profile, rs, summary, fdir, *prior).Render())
	return err
}
