// Command perfbench measures the simulator's own speed on three workloads
// drawn from the paper's experiments. An untraced run (-trace 0) prints
// the end-to-end metrics: simulated seconds per wall second, wall time,
// allocations and bytes per simulated frame, live heap, and set-up time.
// A traced run (-trace 1) prints the per-layer ledger, which splits the
// wall time and the allocations per frame across the simulator's
// packages. Every run checks its simulated outcome. README.md holds the
// workload and metric tables.
//
// Build and run it from the repository root through the wrapper:
//
//	bash perfbench/run.sh --workload flood-walk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable summary goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS. The simulation runs on one goroutine; a
// second P lets the garbage collector's background workers run beside
// it rather than on its thread.
const maxProcs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := strings.Join(workloadNames(), ", ")
	name := fs.String("workload", "", "workload to run: "+names)
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds to measure for, after one warm-up run")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, names)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, not %g\n", *seconds)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	b, err := newBench(w, *seed, benchWindow, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *trace == 1 {
		rep, err = b.ledger(budget)
	} else {
		rep, err = b.endToEnd(budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same metrics; TestBenchmarkJSONMatches
// keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEndMetrics are what an untraced run reports, each the median over
// its measured runs.
var endToEndMetrics = []metricSpec{
	{"sim_rate", "s/s"},
	{"wall_ns_per_frame", "ns/frame"},
	{"allocs_per_frame", "allocs/frame"},
	{"alloc_bytes_per_frame", "B/frame"},
	{"heap_live_bytes", "B"},
	{"setup_s", "s"},
}

// perLayerMetrics are what a traced run reports: self wall time and
// allocations per frame for every layer, the layers' own counts, and the
// ledger's reconciliation against the traced totals.
func perLayerMetrics() []metricSpec {
	var specs []metricSpec
	for _, l := range layers {
		specs = append(specs,
			metricSpec{l + ".ns_per_frame", "ns/frame"},
			metricSpec{l + ".allocs_per_frame", "allocs/frame"})
	}
	return append(specs,
		metricSpec{"sim.events_per_frame", "events/frame"},
		metricSpec{"fw.rules_walked_per_frame", "rules/frame"},
		metricSpec{"conntrack.evictions_per_frame", "evictions/frame"},
		metricSpec{"nic.flowcache_hit_ratio", "ratio"},
		metricSpec{"vpg.crypto_ops_per_frame", "ops/frame"},
		metricSpec{"trace.overhead_ratio", "ratio"},
		metricSpec{"trace.wall_ns_per_frame", "ns/frame"},
		metricSpec{"trace.allocs_per_frame", "allocs/frame"},
		metricSpec{"ledger.unattributed_ratio", "ratio"},
		metricSpec{"ledger.alloc_unattributed_ratio", "ratio"},
	)
}
