// Package experiment regenerates every table and figure in the paper's
// evaluation: Figure 2 (available bandwidth vs. rule-set depth), Figure
// 3(a) (bandwidth under flood), Figure 3(b) (minimum denial-of-service
// flood rate), Table 1 (HTTP performance), plus the ablations called out
// in DESIGN.md.
package experiment

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"barbican/internal/core"
	"barbican/internal/faults"
	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
	"barbican/internal/runner"
)

// Point is one (x, y) measurement of a series.
type Point struct {
	X float64
	Y float64
	// Note carries per-point annotations (e.g. "LOCKUP").
	Note string
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a collection of series with shared axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render formats the figure as an aligned text table, series as columns.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%s vs %s\n\n", f.YLabel, f.XLabel)

	// Collect the union of x values across series, in ascending order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %16s", s.Label)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12s", formatX(x))
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.1f", p.Y)
					if p.Note != "" {
						cell += " " + p.Note
					}
					break
				}
			}
			fmt.Fprintf(&b, "  %16s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Config tunes experiment runtime vs. fidelity.
type Config struct {
	// Duration is the per-measurement window; zero uses each tool's
	// default (5 s bandwidth, 30 s HTTP).
	Duration time.Duration
	// Quick shrinks sweeps to a few representative points; used by unit
	// tests and smoke runs.
	Quick bool
	// Seed seeds every simulation; zero means 1.
	Seed int64
	// MetricsDir, when non-empty, attaches a flight recorder to each
	// simulation run and writes telemetry artifacts (Prometheus text,
	// JSON, CSV) plus figure/table data exports under this directory.
	MetricsDir string
	// SampleEvery is the flight-recorder tick in virtual time; zero
	// uses obs.DefaultSampleEvery.
	SampleEvery time.Duration
	// TraceDir, when non-empty, attaches a packet-lifecycle tracer to
	// each run and writes Perfetto trace_event JSON plus tcpdump-style
	// text logs under this directory.
	TraceDir string
	// TraceSample is the tracer's 1-in-N sampling rate; zero uses
	// tracing.DefaultSampleEvery.
	TraceSample int
	// ProfileDir, when non-empty, attaches the dual-domain profiler
	// (cost-unit card attribution + wall-clock kernel sampling) to
	// each run and writes pprof + folded-stack artifacts under this
	// directory, plus a merged per-experiment cost profile.
	ProfileDir string
	// ProfileSample is the kernel profiler's 1-in-N event sampling
	// rate; zero uses profile.DefaultKernelSampleEvery. The cost
	// domain is always exact.
	ProfileSample int
	// Parallel is the number of experiment points measured concurrently;
	// zero means runtime.GOMAXPROCS(0) and 1 runs points serially on the
	// calling goroutine. Every point owns a private simulation kernel and
	// results are reassembled in declaration order, so output is
	// byte-identical at any worker count.
	Parallel int
	// Account, when non-nil, accumulates point counts and sim/wall time
	// across every simulation the experiment runs.
	Account *Accounting
	// Faults, when non-nil, replaces the chaos experiments' default
	// management-channel condition sweep with this single plan (the
	// barbican -faults flag).
	Faults *faults.Plan
	// FaultSeed seeds the fault injectors; zero derives from each
	// scenario's simulation seed.
	FaultSeed int64
}

// pool returns the executor pool the configuration selects.
func (c Config) pool() runner.Pool { return runner.Pool{Workers: c.Parallel} }

// ArtifactFlags declares the per-run artifact flags on fs, bound to
// c: -metrics-out, -sample-every, -trace-out, -trace-sample,
// -profile-out and -profile-sample.
func (c *Config) ArtifactFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsDir, "metrics-out", "", "write telemetry artifacts (prom/json/csv) under this directory")
	fs.DurationVar(&c.SampleEvery, "sample-every", 0, "flight-recorder tick in virtual time (0 = 50ms default)")
	fs.StringVar(&c.TraceDir, "trace-out", "", "write packet-lifecycle traces (Perfetto JSON + text) under this directory")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "trace 1 packet in N (0 = 64 default; needs -trace-out)")
	fs.StringVar(&c.ProfileDir, "profile-out", "", "write dual-domain profiles (pprof + folded stacks) under this directory")
	fs.IntVar(&c.ProfileSample, "profile-sample", 0, "kernel profiler samples 1 event in N (0 = 16 default; needs -profile-out)")
}

// Observing reports whether the configuration asks for per-run
// artifacts (any of MetricsDir, TraceDir, ProfileDir).
func (c Config) Observing() bool {
	return c.MetricsDir != "" || c.TraceDir != "" || c.ProfileDir != ""
}

// ObserveOptions returns the observability pillars the configuration
// selects: the recorder tick always, the tracer when TraceDir is set,
// the profiler when ProfileDir is set.
func (c Config) ObserveOptions() core.ObserveOptions {
	opt := core.ObserveOptions{SampleEvery: c.SampleEvery}
	if c.TraceDir != "" {
		opt.Trace.SampleEvery = c.TraceSample
		if opt.Trace.SampleEvery <= 0 {
			opt.Trace.SampleEvery = tracing.DefaultSampleEvery
		}
	}
	if c.ProfileDir != "" {
		opt.Profile = &profile.Options{KernelSampleEvery: c.ProfileSample}
	}
	return opt
}

// account records one completed point's cost (or several, for searches
// that run many probes per point) when accounting is enabled.
func (c Config) account(points int, simSeconds float64, wallBusy time.Duration) {
	c.Account.Add(points, simSeconds, wallBusy)
}

// window is the per-measurement window: Duration when set, otherwise
// quick or full by the Quick flag.
func (c Config) window(quick, full time.Duration) time.Duration {
	switch {
	case c.Duration != 0:
		return c.Duration
	case c.Quick:
		return quick
	}
	return full
}

func (c Config) bandwidthDuration() time.Duration { return c.window(time.Second, 5*time.Second) }

func (c Config) httpDuration() time.Duration { return c.window(2*time.Second, 30*time.Second) }

// formatX renders an axis value: integers without decimals (rule
// depths, flood rates), fractional values (timeline seconds) compactly.
func formatX(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%.0f", x)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
