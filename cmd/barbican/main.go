// Command barbican regenerates the paper's evaluation: every figure and
// table from "Barbarians in the Gate" (DSN 2006), reproduced on the
// simulated testbed.
//
// Usage:
//
//	barbican [flags] EXPERIMENT|all
//	barbican flood [flags]
//	barbican explain [flags]
//
// barbican -h lists the experiment names. all runs every experiment
// except report, which reruns the paper's figures and tables as one
// markdown document.
//
// Flags:
//
//	-quick           shrink sweeps to a few representative points
//	-duration D      per-measurement window (default: tool defaults)
//	-seed N          simulation seed (default 1)
//	-parallel N      experiment points measured concurrently (default
//	                 GOMAXPROCS; 1 = serial). Output is byte-identical
//	                 at any worker count.
//	-metrics-out DIR write telemetry artifacts (CSV timeline, Prometheus
//	                 text snapshot) for every run, plus figure/table
//	                 data exports
//	-sample-every D  flight-recorder tick in virtual time (default 50ms)
//	-trace-out DIR   write sampled packet-lifecycle traces (Perfetto
//	                 trace_event JSON) for every run
//	-trace-sample N  trace 1 packet in N (default 64)
//	-profile-out DIR write dual-domain profiles for every run as gzipped
//	                 pprof: the always-recorded cost units of every
//	                 enforcement point, the iptables host filter included
//	                 (phases parse, match, conntrack, crypto, verdict;
//	                 frames per rule, compiled lookup, cache hit), and
//	                 kernel wall time
//	-profile-sample N  kernel profiler samples 1 event in N (default 16;
//	                 the cost domain is always exact)
//	-pcap-out DIR    write each run's client-side wire capture as pcap
//	-faults PLAN     custom management-channel fault plan for the chaos
//	                 experiments (e.g. "loss=0.2,down=1s-2.5s")
//	-fault-seed N    fault-injector seed (default: the simulation seed)
//
// The chaos experiment family pushes the flood-mitigating policy over a
// deliberately faulty management channel (seeded loss, corruption, and
// partition windows) and reports policy-convergence time and available
// bandwidth; see internal/faults for the plan syntax.
//
// The detect family exercises the in-band telemetry plane: NIC agents
// report card health over the management network, the collector's
// per-device detectors raise flood alerts, and the experiments report
// time-to-detect and window-of-exposure versus flood rate, card type,
// and management-channel faults. fleet-health runs the canonical
// detection scenario and renders the collector's fleet table plus the
// alert timeline.
//
// The stateflood family attacks the stateful card's conntrack table:
// SYN floods from spoofed sources exhaust table entries at rates far
// below packet-rate DoS, eviction policies are compared under flood,
// ACK floods probe the INVALID-drop path, and the recovery table shows
// what each state-recovery policy does to live connections after a
// fail-open degraded episode.
//
// The flood subcommand explores one device's flood tolerance: the
// available bandwidth at every point of -depth × -rate (comma lists;
// one value each is a single run, 2 s window by default), or with
// -search the minimum denial-of-service flood rate at every depth. It
// shares -duration, -seed, -parallel, -fault-seed and the artifact
// flags with the experiments, and its points run on the same executor
// and write artifacts under <dir>/flood/<label>. Its -faults is a
// data-plane plan for the target's access link, not the chaos
// experiments' management-channel plan. -device takes a name from the
// one device table (internal/core); see barbican flood -h.
//
// The explain subcommand replays one hypothetical packet against a
// rule set (the synthetic depth-N set, or a policy file with -policy)
// and prints the matched rule, depth walked, and predicted per-stage
// cost; see barbican explain -h.
//
// The profiles -profile-out writes are read with the toolchain's own
// reader: go tool pprof -top [-cum] FILE for the top phases and
// stacks, -traces for every stack, and -top -diff_base OLD NEW for the
// per-stack deltas between two runs. Given several files (say
// DIR/fig2/*.cost.pprof, every point of one experiment), pprof merges
// them into one view.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"barbican/internal/experiment"
	"barbican/internal/faults"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "barbican:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "explain":
			return runExplain(w, args[1:])
		case "flood":
			return runFlood(w, args[1:])
		}
	}
	fs := flag.NewFlagSet("barbican", flag.ContinueOnError)
	var cfg experiment.Config
	fs.BoolVar(&cfg.Quick, "quick", false, "shrink sweeps to representative points")
	sharedFlags(fs, &cfg)
	faultSpec := fs.String("faults", "", `custom management-channel fault plan for the chaos experiments, e.g. "loss=0.2,down=1s-2.5s" (replaces the default condition sweep)`)
	fs.Usage = func() {
		var names []string
		for _, e := range experiment.Experiments() {
			names = append(names, e.Name)
		}
		fmt.Fprintf(fs.Output(), "usage: barbican [flags] %s|all\n", strings.Join(names, "|"))
		fmt.Fprintln(fs.Output(), "       barbican flood [flags]  (one device's bandwidth over depths × flood rates)")
		fmt.Fprintln(fs.Output(), "       barbican explain [flags]  (replay one packet against a rule set)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name")
	}
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		cfg.Faults = &plan
	}
	want := fs.Arg(0)
	selected := experiment.Select(want)
	if len(selected) == 0 {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", want)
	}
	return runExperiments(w, cfg, selected)
}

// sharedFlags declares the flags every simulating command takes, bound
// to cfg: -duration, -seed, -parallel, -fault-seed and the artifact
// flags.
func sharedFlags(fs *flag.FlagSet, cfg *experiment.Config) {
	fs.DurationVar(&cfg.Duration, "duration", 0, "per-measurement window (0 = tool default)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "simulation seed (0 = 1)")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "experiment points measured concurrently (0 = GOMAXPROCS, 1 = serial)")
	fs.Int64Var(&cfg.FaultSeed, "fault-seed", 0, "fault-injector seed (0 = derive from the simulation seed)")
	cfg.ArtifactFlags(fs)
}

// runExperiments runs the experiments in order and prints each one's
// parts, joined by a blank line, then the executor's accounting
// summary. With -metrics-out every part writes its data exports and
// the executor its accounting.
func runExperiments(w io.Writer, cfg experiment.Config, selected []experiment.Experiment) error {
	acct := &experiment.Accounting{}
	cfg.Account = acct
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	for _, e := range selected {
		var out []string
		for _, p := range e.Parts {
			res, err := p.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if cfg.MetricsDir != "" {
				if err := res.WriteArtifacts(cfg.MetricsDir, p.Name); err != nil {
					return fmt.Errorf("%s: %w", e.Name, err)
				}
			}
			out = append(out, res.Render())
		}
		fmt.Fprintln(w, strings.Join(out, "\n"))
	}
	elapsed := time.Since(start)
	fmt.Fprintln(w, acct.Summary(elapsed, workers))
	if cfg.MetricsDir != "" {
		if err := acct.WriteArtifacts(cfg.MetricsDir, elapsed, workers); err != nil {
			return fmt.Errorf("executor metrics: %w", err)
		}
	}
	return nil
}
