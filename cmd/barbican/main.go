// Command barbican regenerates the paper's evaluation: every figure and
// table from "Barbarians in the Gate" (DSN 2006), reproduced on the
// simulated testbed.
//
// Usage:
//
//	barbican [flags] fig2|fig3a|fig3b|fig2ng|fig3ng|table1|ablations|detect|stateflood|fleet-health|all
//	barbican explain [flags]
//	barbican profile [flags] FILE [FILE]
//
// Flags:
//
//	-quick           shrink sweeps to a few representative points
//	-duration D      per-measurement window (default: tool defaults)
//	-seed N          simulation seed (default 1)
//	-parallel N      experiment points measured concurrently (default
//	                 GOMAXPROCS; 1 = serial). Output is byte-identical
//	                 at any worker count.
//	-metrics-out DIR write telemetry artifacts (Prometheus text, JSON,
//	                 CSV) for every run, plus figure/table data exports
//	-sample-every D  flight-recorder tick in virtual time (default 50ms)
//	-trace-out DIR   write sampled packet-lifecycle traces (Perfetto
//	                 trace_event JSON + annotated text) for every run
//	-trace-sample N  trace 1 packet in N (default 64)
//	-profile-out DIR write dual-domain profiles (card cost units +
//	                 kernel wall time) for every run as gzipped pprof
//	                 and folded stacks, plus merged per-experiment
//	                 cost profiles
//	-profile-sample N  kernel profiler samples 1 event in N (default 16;
//	                 the cost domain is always exact)
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
// The explain subcommand replays one hypothetical packet against a
// rule set and prints the matched rule, depth walked, and predicted
// per-stage cost; see barbican explain -h.
//
// The profile subcommand summarizes a profile written by -profile-out
// (top-N phases and stacks) or, with -diff, reports per-phase and
// per-stack deltas between two profiles; see barbican profile -h.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"barbican/internal/experiment"
	"barbican/internal/faults"
	"barbican/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "barbican:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "explain" {
		return runExplain(os.Stdout, args[1:])
	}
	if len(args) > 0 && args[0] == "profile" {
		return runProfileCmd(os.Stdout, args[1:])
	}
	fs := flag.NewFlagSet("barbican", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink sweeps to representative points")
	duration := fs.Duration("duration", 0, "per-measurement window (0 = tool default)")
	seed := fs.Int64("seed", 0, "simulation seed (0 = 1)")
	parallel := fs.Int("parallel", 0, "experiment points measured concurrently (0 = GOMAXPROCS, 1 = serial)")
	var cfg experiment.Config
	cfg.ArtifactFlags(fs)
	faultSpec := fs.String("faults", "", `custom management-channel fault plan for the chaos experiments, e.g. "loss=0.2,down=1s-2.5s" (replaces the default condition sweep)`)
	faultSeed := fs.Int64("fault-seed", 0, "fault-injector seed (0 = derive from the simulation seed)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: barbican [flags] fig2|fig3a|fig3b|fig2ng|fig3ng|table1|ablations|timeline|ext1|ext2|ext3|rfc2544|latency|chaos|detect|stateflood|fleet-health|report|all")
		fmt.Fprintln(fs.Output(), "       barbican explain [flags]  (replay one packet against a rule set)")
		fmt.Fprintln(fs.Output(), "       barbican profile [flags] FILE [FILE]  (summarize or diff profiles)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name")
	}
	acct := &experiment.Accounting{}
	cfg.Quick, cfg.Duration, cfg.Seed = *quick, *duration, *seed
	cfg.Parallel, cfg.Account, cfg.FaultSeed = *parallel, acct, *faultSeed
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		cfg.Faults = &plan
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type runner struct {
		name string
		fn   func(experiment.Config) (string, error)
	}
	runners := []runner{
		{name: "fig2", fn: renderFigure("fig2", experiment.Fig2)},
		{name: "fig3a", fn: renderFigure("fig3a", experiment.Fig3a)},
		{name: "fig3b", fn: renderFigure("fig3b", experiment.Fig3b)},
		{name: "fig2ng", fn: renderFigure("fig2ng", experiment.Fig2NextGen)},
		{name: "fig3ng", fn: renderFigure("fig3ng", experiment.Fig3NextGen)},
		{name: "table1", fn: renderTable("table1", experiment.Table1)},
		{name: "ablations", fn: renderAblations},
		{name: "timeline", fn: renderFigure("timeline", experiment.FloodTimeline)},
		{name: "ext1", fn: renderTable("ext1", experiment.ExtensionNextGen)},
		{name: "ext2", fn: renderTable("ext2", experiment.ExtensionHTTPUnderFlood)},
		{name: "ext3", fn: renderTable("ext3", experiment.ExtensionFragmentEvasion)},
		{name: "rfc2544", fn: renderTable("rfc2544", experiment.AppendixRFC2544)},
		{name: "latency", fn: renderTable("latency", experiment.AppendixLatency)},
		{name: "chaos", fn: renderFamily("chaos-bandwidth", experiment.ChaosBandwidth,
			namedTable{"chaos-convergence", experiment.ChaosConvergence})},
		{name: "detect", fn: renderFamily("detect-latency", experiment.DetectionLatency,
			namedTable{"detect-exposure", experiment.DetectionExposure},
			namedTable{"detect-chaos", experiment.DetectionChaos},
			namedTable{"detect-false-positives", experiment.DetectionFalsePositives})},
		{name: "stateflood", fn: renderFamily("stateflood-curves", experiment.StatefloodCurves,
			namedTable{"stateflood-thresholds", experiment.StatefloodThresholds},
			namedTable{"stateflood-ack", experiment.StatefloodACK},
			namedTable{"stateflood-recovery", experiment.StatefloodRecovery})},
		{name: "fleet-health", fn: experiment.FleetHealth},
		{name: "report", fn: experiment.Report},
	}

	want := fs.Arg(0)
	ran := false
	start := time.Now()
	for _, r := range runners {
		if want != r.name && (want != "all" || r.name == "report") {
			continue
		}
		ran = true
		out, err := r.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Println(out)
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", want)
	}
	elapsed := time.Since(start)
	fmt.Println(acct.Summary(elapsed, workers))
	if cfg.MetricsDir != "" {
		reg := obs.NewRegistry()
		acct.Publish(reg, elapsed, workers)
		if _, err := obs.WriteRunArtifacts(cfg.MetricsDir, "executor", reg, nil); err != nil {
			return fmt.Errorf("executor metrics: %w", err)
		}
	}
	return nil
}

func renderFigure(name string, fn func(experiment.Config) (*experiment.Figure, error)) func(experiment.Config) (string, error) {
	return func(cfg experiment.Config) (string, error) {
		fig, err := fn(cfg)
		if err != nil {
			return "", err
		}
		if cfg.MetricsDir != "" {
			if err := experiment.WriteFigureArtifacts(cfg.MetricsDir, name, fig); err != nil {
				return "", err
			}
		}
		return fig.Render(), nil
	}
}

func renderTable(name string, fn func(experiment.Config) (*experiment.Table, error)) func(experiment.Config) (string, error) {
	return func(cfg experiment.Config) (string, error) {
		t, err := fn(cfg)
		if err != nil {
			return "", err
		}
		if cfg.MetricsDir != "" {
			if err := experiment.WriteTableArtifacts(cfg.MetricsDir, name, t); err != nil {
				return "", err
			}
		}
		return t.Render(), nil
	}
}

// namedTable is one table of an experiment family with its artifact
// name.
type namedTable struct {
	name string
	fn   func(experiment.Config) (*experiment.Table, error)
}

// renderFamily renders a family's figure followed by its tables.
func renderFamily(figName string, fig func(experiment.Config) (*experiment.Figure, error), tables ...namedTable) func(experiment.Config) (string, error) {
	return func(cfg experiment.Config) (string, error) {
		out, err := renderFigure(figName, fig)(cfg)
		if err != nil {
			return "", err
		}
		for _, t := range tables {
			tab, err := renderTable(t.name, t.fn)(cfg)
			if err != nil {
				return "", err
			}
			out += "\n" + tab
		}
		return out, nil
	}
}

func renderAblations(cfg experiment.Config) (string, error) {
	var out string
	for _, fn := range []func(experiment.Config) (*experiment.Table, error){
		experiment.AblationDenyResponses,
		experiment.AblationVPGLazyDecrypt,
		experiment.AblationTrailingRules,
	} {
		t, err := fn(cfg)
		if err != nil {
			return "", err
		}
		out += t.Render() + "\n"
	}
	return out, nil
}
