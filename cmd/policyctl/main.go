// Command policyctl works with barbican policy files.
//
// Usage:
//
//	policyctl check <file>            validate a policy file and print its canonical form
//	policyctl lint <file> [flags]     prove conflicts, redundant and unreachable rules
//	                                  over the whole packet space and every connection
//	                                  state, and warn about depth cost
//	policyctl verify <file> [flags]   exhaustively prove the compiled classifier equals
//	                                  the linear walk for the policy (or -generate corpus)
//	policyctl verify <a> <b>          prove two policies verdict-identical over the
//	                                  entire packet space, or print witness packets
//	policyctl diff <a> <b> [flags]    exact semantic diff: per-class changed-packet
//	                                  counts and witness packets for each changed region
//	policyctl oracle                  print the built-in Oracle-server example policy
//	policyctl demo <file>             push the policy to a simulated EFW fleet and report
//
// To replay one packet against a policy file, use
// `barbican explain -policy <file>`; for the fleet-health view of the
// flood-detection scenario, use `barbican fleet-health`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/nic"
	"barbican/internal/packet"
	"barbican/internal/policy"
	"barbican/internal/stack"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "policyctl:", err)
		os.Exit(1)
	}
}

// run executes one policyctl command line, writing its output to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("policyctl", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: policyctl check <file> | lint <file> [flags] | verify <file> [<file>] [flags] | diff <a> <b> [flags] | oracle | demo <file>")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.Arg(0) {
	case "check":
		return check(w, fs.Arg(1))
	case "lint":
		var flags []string
		if fs.NArg() > 2 {
			flags = fs.Args()[2:]
		}
		return lint(w, fs.Arg(1), flags)
	case "verify":
		return verify(w, fs.Args()[1:])
	case "diff":
		return diffCmd(w, fs.Args()[1:])
	case "oracle":
		fmt.Fprint(w, policy.OraclePolicy)
		return nil
	case "demo":
		return demo(w, fs.Arg(1))
	default:
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", fs.Arg(0))
	}
}

// lintFinding is the JSON form of one finding.
type lintFinding struct {
	Severity string `json:"severity"`
	Kind     string `json:"kind"`
	Rule     int    `json:"rule"`
	By       int    `json:"by,omitempty"`
	Covering []int  `json:"covering,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	Message  string `json:"message"`
	// SustainablePPS predicts the packet rate the selected card can
	// sustain for packets that traverse to this rule's depth (Fig. 2's
	// cost model); set for depth findings only.
	SustainablePPS float64 `json:"sustainablePps,omitempty"`
	// SustainablePPSNextGen is the same prediction on the NextGen
	// compiled-matcher card, whose cost is flat in depth — the
	// comparison column showing what escaping the linear walk buys.
	SustainablePPSNextGen float64 `json:"sustainablePpsNextgen,omitempty"`
}

// lint runs the policy linter (sem.Lint): conflicting, shadowed,
// redundant, and unreachable rules are order/coverage bugs, proven
// over the whole packet space under every connection state; depth
// findings translate rule position into the card's sustainable packet
// rate via the Fig. 2 cost model. Exit status is 1 when any
// error-severity finding (conflict, shadowed, unreachable) is present.
func lint(w io.Writer, path string, args []string) error {
	fs := flag.NewFlagSet("policyctl lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	device := fs.String("device", "efw", "device whose enforcement point (card, or host firewall for iptables) prices depth predictions: "+core.DeviceNames())
	depthWarn := fs.Int("depth-warn", 16, "note reachable rules deeper than this position (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text, err := readPolicy(path)
	if err != nil {
		return err
	}
	rs, err := policy.Parse(text)
	if err != nil {
		return err
	}
	dev, err := core.ParseDevice(*device)
	if err != nil {
		return err
	}
	profile := dev.Profile()

	findings := sem.Lint(rs, *depthWarn)
	nextgen := nic.NextGen()
	out := make([]lintFinding, 0, len(findings))
	errors := 0
	for _, f := range findings {
		lf := lintFinding{
			Severity: f.Kind.Severity().String(),
			Kind:     f.Kind.String(),
			Rule:     f.Rule,
			By:       f.By,
			Covering: f.Covering,
			Depth:    f.Depth,
			Message:  f.String(),
		}
		if f.Kind == sem.FindingDepth && profile.CapacityUnits > 0 {
			lf.SustainablePPS = profile.CapacityUnits / profile.Cost(f.Depth, 0)
			lf.SustainablePPSNextGen = nextgen.CapacityUnits / nextgen.Cost(f.Depth, 0)
		}
		if f.Kind.Severity() == sem.SeverityError {
			errors++
		}
		out = append(out, lf)
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, lf := range out {
			fmt.Fprintf(w, "%s: %s\n", lf.Severity, lf.Message)
			if lf.By != 0 {
				fmt.Fprintf(w, "  rule %d: %s\n", lf.By, rs.Rule(lf.By))
			}
			for _, j := range lf.Covering {
				fmt.Fprintf(w, "  rule %d: %s\n", j, rs.Rule(j))
			}
			if lf.Rule != 0 && lf.Kind != "deep" {
				fmt.Fprintf(w, "  rule %d: %s\n", lf.Rule, rs.Rule(lf.Rule))
			}
			if lf.SustainablePPS > 0 {
				fmt.Fprintf(w, "  %s sustains ≈ %.0f pkt/s for packets walking %d rules\n",
					profile.Name, lf.SustainablePPS, lf.Depth)
				fmt.Fprintf(w, "  %s (compiled) sustains ≈ %.0f pkt/s at that depth\n",
					nextgen.Name, lf.SustainablePPSNextGen)
			}
		}
		fmt.Fprintf(w, "# %d rules, %d finding(s)\n", rs.Len(), len(out))
	}
	if errors > 0 {
		return fmt.Errorf("%d error-severity finding(s)", errors)
	}
	return nil
}

// verify runs exhaustive proofs. With one policy it proves the
// compiled classifier byte-identical to the linear walk over every
// atomic region of the packet space — the full-coverage upgrade of the
// sampled differential test. With two policies it proves them
// verdict-identical (semantic convergence), or prints witness packets
// for the difference. With -generate it verifies a seeded random
// corpus instead of a file. Exit status is 1 when any proof fails.
func verify(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("policyctl verify", flag.ContinueOnError)
	generate := fs.Int("generate", 0, "verify this many generated rule sets instead of a file")
	seed := fs.Int64("seed", 1, "corpus seed for -generate")
	genRules := fs.Int("rules", 24, "rules per generated set for -generate")
	maxRegions := fs.Uint64("max-regions", 0, "region budget per proof (0 = engine default)")
	strict := fs.Bool("strict", false, "two-policy mode: require identical deciding rules, not just identical actions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *generate > 0 {
		r := rand.New(rand.NewSource(*seed))
		var regions uint64
		for i := 0; i < *generate; i++ {
			rs := sem.Generate(r, sem.GenOptions{Rules: *genRules})
			res, err := sem.VerifyCompiled(rs, sem.VerifyOptions{MaxRegions: *maxRegions})
			if err != nil {
				return fmt.Errorf("corpus seed %d set %d: %w", *seed, i, err)
			}
			if !res.OK() {
				fmt.Fprintf(w, "FAIL corpus seed %d set %d (%d rules):\n", *seed, i, rs.Len())
				printVerifyFailure(w, res, rs)
				return fmt.Errorf("compiled classifier diverges from the linear walk")
			}
			regions += res.Regions
		}
		fmt.Fprintf(w, "ok: %d generated rule sets (seed %d, %d rules each), %d regions proven\n",
			*generate, *seed, *genRules, regions)
		return nil
	}

	switch fs.NArg() {
	case 1:
		rs, err := loadPolicy(fs.Arg(0))
		if err != nil {
			return err
		}
		res, err := sem.VerifyCompiled(rs, sem.VerifyOptions{MaxRegions: *maxRegions})
		if err != nil {
			return err
		}
		if !res.OK() {
			printVerifyFailure(w, res, rs)
			return fmt.Errorf("compiled classifier diverges from the linear walk")
		}
		fmt.Fprintf(w, "ok: compiled classifier == linear walk over all %d atomic regions (%d rules)\n",
			res.Regions, res.Rules)
		return nil
	case 2:
		a, err := loadPolicy(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := loadPolicy(fs.Arg(1))
		if err != nil {
			return err
		}
		res, err := sem.Diff(a, b, sem.DiffOptions{StrictIndex: *strict, MaxRegions: *maxRegions})
		if err != nil {
			return err
		}
		if !res.Equivalent {
			fmt.Fprintf(w, "NOT equivalent: %v packets change action, %v change deciding rule (%d regions)\n",
				res.ChangedPackets, res.RedecidedPackets, res.ChangedRegions)
			for _, wit := range res.Witnesses {
				fmt.Fprintf(w, "  %v\n", wit)
			}
			return fmt.Errorf("policies are not semantically equivalent")
		}
		fmt.Fprintf(w, "ok: policies are verdict-identical over the entire packet space")
		if !*strict && res.RedecidedPackets.Sign() != 0 {
			fmt.Fprintf(w, " (%v packets decided by a different rule; -strict rejects this)", res.RedecidedPackets)
		}
		fmt.Fprintln(w)
		return nil
	default:
		return fmt.Errorf("verify needs one policy, two policies, or -generate N")
	}
}

func printVerifyFailure(w io.Writer, res *sem.VerifyResult, rs *fw.RuleSet) {
	if res.Mismatch != nil {
		fmt.Fprintf(w, "  %v\n", res.Mismatch)
	}
	if res.ParityError != "" {
		fmt.Fprintf(w, "  counter parity: %s\n", res.ParityError)
	}
	fmt.Fprintf(w, "policy under test:\n%v", rs)
}

// diffCmd prints the exact semantic diff between two policies: how
// many packets change verdict, in which direction, and one witness
// packet per changed traffic class. The witness line replays verbatim
// through `barbican explain -policy`.
func diffCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("policyctl diff", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the diff as JSON")
	witnesses := fs.Int("witnesses", 8, "maximum witness packets to print")
	maxRegions := fs.Uint64("max-regions", 0, "region budget (0 = engine default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two policy files")
	}
	a, err := loadPolicy(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadPolicy(fs.Arg(1))
	if err != nil {
		return err
	}
	res, err := sem.Diff(a, b, sem.DiffOptions{MaxWitnesses: *witnesses, MaxRegions: *maxRegions})
	if err != nil {
		return err
	}

	if *jsonOut {
		type jsonWitness struct {
			Class   string `json:"class"`
			From    string `json:"from"`
			To      string `json:"to"`
			Region  string `json:"region"`
			Packet  string `json:"packet"`
			Dir     string `json:"dir"`
			Proto   int    `json:"proto"`
			Src     string `json:"src"`
			Dst     string `json:"dst"`
			SrcPort int    `json:"srcPort"`
			DstPort int    `json:"dstPort"`
			Sealed  bool   `json:"sealed"`
		}
		doc := struct {
			Equivalent     bool          `json:"equivalent"`
			ChangedPackets string        `json:"changedPackets"`
			Redecided      string        `json:"redecidedPackets"`
			Total          string        `json:"totalPackets"`
			AllowToDeny    string        `json:"allowToDeny"`
			DenyToAllow    string        `json:"denyToAllow"`
			ChangedRegions uint64        `json:"changedRegions"`
			Witnesses      []jsonWitness `json:"witnesses"`
		}{
			Equivalent:     res.Equivalent,
			ChangedPackets: res.ChangedPackets.String(),
			Redecided:      res.RedecidedPackets.String(),
			Total:          res.TotalPackets.String(),
			AllowToDeny:    res.ByClass[sem.RegionAllowToDeny].String(),
			DenyToAllow:    res.ByClass[sem.RegionDenyToAllow].String(),
			ChangedRegions: res.ChangedRegions,
			Witnesses:      make([]jsonWitness, 0, len(res.Witnesses)),
		}
		for _, w := range res.Witnesses {
			doc.Witnesses = append(doc.Witnesses, jsonWitness{
				Class: w.Class.String(), From: w.From.String(), To: w.To.String(),
				Region: w.Region.String(), Packet: fmt.Sprint(w.Packet), Dir: w.Dir.String(),
				Proto: int(w.Packet.Proto), Src: w.Packet.Src.String(), Dst: w.Packet.Dst.String(),
				SrcPort: int(w.Packet.SrcPort), DstPort: int(w.Packet.DstPort), Sealed: w.Packet.Sealed,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	if res.Equivalent && res.RedecidedPackets.Sign() == 0 {
		fmt.Fprintln(w, "policies are semantically identical (every packet: same action, same deciding rule)")
		return nil
	}
	fmt.Fprintf(w, "changed packets: %v of %v\n", res.ChangedPackets, res.TotalPackets)
	fmt.Fprintf(w, "  allow -> deny: %v\n", res.ByClass[sem.RegionAllowToDeny])
	fmt.Fprintf(w, "  deny -> allow: %v\n", res.ByClass[sem.RegionDenyToAllow])
	fmt.Fprintf(w, "  redecided (same action, different rule): %v\n", res.RedecidedPackets)
	fmt.Fprintf(w, "changed regions: %d\n", res.ChangedRegions)
	for _, wit := range res.Witnesses {
		fmt.Fprintf(w, "  %v\n", wit)
	}
	return nil
}

// loadPolicy reads and parses one policy argument ("-" is the
// built-in Oracle example).
func loadPolicy(path string) (*fw.RuleSet, error) {
	text, err := readPolicy(path)
	if err != nil {
		return nil, err
	}
	return policy.Parse(text)
}

func readPolicy(path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("missing policy file argument")
	}
	if path == "-" {
		return policy.OraclePolicy, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func check(w io.Writer, path string) error {
	rs, err := loadPolicy(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# valid: %d rules, default %v\n", rs.Len(), rs.Default())
	fmt.Fprint(w, policy.Format(rs))
	return nil
}

// demo pushes the policy to a simulated fleet of EFW-protected hosts and
// writes the audit log and each host's installed version to w. The fleet
// is a slice, so agents start and pushes leave in one fixed order and
// the output is the same on every run.
func demo(w io.Writer, path string) error {
	text, err := readPolicy(path)
	if err != nil {
		return err
	}
	if _, err := policy.Parse(text); err != nil {
		return err
	}

	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW, ClientDevice: core.DeviceEFW})
	if err != nil {
		return err
	}
	extra, err := tb.AddHost("db-server", packet.MustIP("10.0.0.3"), core.DeviceEFW, true)
	if err != nil {
		return err
	}

	psk := policy.DeriveKey("demo")
	srv := policy.NewServer(tb.PolicyServer, psk)
	fleet := []struct {
		name  string
		host  *stack.Host
		agent *policy.Agent
	}{
		{name: "client", host: tb.Client},
		{name: "db-server", host: extra},
		{name: "target", host: tb.Target},
	}
	for i := range fleet {
		m := &fleet[i]
		if m.agent, err = policy.NewAgent(m.host, tb.PolicyServer.IP(), psk); err != nil {
			return err
		}
		if _, err := srv.SetPolicy(m.name, text); err != nil {
			return err
		}
		if err := srv.Push(m.name, m.host.IP(), nil); err != nil {
			return err
		}
	}
	if err := tb.Kernel.RunUntil(10 * time.Second); err != nil {
		return err
	}

	for _, e := range srv.Audit() {
		fmt.Fprintln(w, e)
	}
	for _, m := range fleet {
		fmt.Fprintf(w, "%-10s installed v%d (%d rules on card)\n",
			m.name, m.agent.InstalledVersion(), m.host.NIC().RuleSet().Len())
	}
	return nil
}
