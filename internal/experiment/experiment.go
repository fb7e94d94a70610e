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

	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %16s", s.Label)
	}
	b.WriteByte('\n')
	xs, cells := f.grid()
	for i, x := range xs {
		fmt.Fprintf(&b, "%12s", formatX(x))
		for _, p := range cells[i] {
			cell := ""
			if p != nil {
				cell = fmt.Sprintf("%.1f", p.Y)
				if p.Note != "" {
					cell += " " + p.Note
				}
			}
			fmt.Fprintf(&b, "  %16s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// grid lays the figure out as rows: xs is the union of every series'
// x values in ascending order, and cells[i][j] is series j's point at
// xs[i], or nil where that series has no point there (its first point
// at an x wins).
func (f *Figure) grid() (xs []float64, cells [][]*Point) {
	row := make(map[float64]int)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, ok := row[p.X]; !ok {
				row[p.X] = 0
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for i, x := range xs {
		row[x] = i
	}
	cells = make([][]*Point, len(xs))
	for i := range cells {
		cells[i] = make([]*Point, len(f.Series))
	}
	for j, s := range f.Series {
		for k := range s.Points {
			p := &s.Points[k]
			if i, ok := row[p.X]; ok && cells[i][j] == nil {
				cells[i][j] = p
			}
		}
	}
	return xs, cells
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
	// simulation run and writes telemetry artifacts (the CSV timeline
	// and the Prometheus text snapshot) plus figure/table data exports
	// under this directory.
	MetricsDir string
	// SampleEvery is the flight-recorder tick in virtual time; zero
	// uses obs.DefaultSampleEvery.
	SampleEvery time.Duration
	// TraceDir, when non-empty, attaches a packet-lifecycle tracer to
	// each run and writes Perfetto trace_event JSON under this
	// directory.
	TraceDir string
	// TraceSample is the tracer's 1-in-N sampling rate; zero uses
	// tracing.DefaultSampleEvery.
	TraceSample int
	// ProfileDir, when non-empty, attaches the wall-clock kernel
	// sampler to each run and writes its cost profile (every
	// enforcement point's always-on account) and kernel profile as
	// pprof under this directory.
	ProfileDir string
	// ProfileSample is the kernel profiler's 1-in-N event sampling
	// rate; zero uses profile.DefaultKernelSampleEvery. The cost
	// domain is always exact.
	ProfileSample int
	// PcapDir, when non-empty, captures the client's wire for each run
	// and writes it as a classic pcap file under this directory.
	PcapDir string
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
	// FaultSeed seeds the links' fault plans; zero derives from each
	// scenario's simulation seed.
	FaultSeed int64
}

// pool returns the executor pool the configuration selects.
func (c Config) pool() runner.Pool { return runner.Pool{Workers: c.Parallel} }

// sweep measures a grid of independent cells on the executor: row r
// has cols[r] cells and fn(r, c) measures cell c of row r. The grid is
// flattened row by row onto runner.Map, so cells[r][c] holds fn(r, c)
// at any worker count, the serial path runs cells in declaration order,
// and a failure returns the lowest-declared failing cell's error.
func sweep[T any](cfg Config, cols []int, fn func(r, c int) (T, error)) ([][]T, error) {
	var at [][2]int
	for r, n := range cols {
		for c := 0; c < n; c++ {
			at = append(at, [2]int{r, c})
		}
	}
	flat, err := runner.Map(cfg.pool(), len(at), func(i int) (T, error) { return fn(at[i][0], at[i][1]) })
	if err != nil {
		return nil, err
	}
	cells := make([][]T, len(cols))
	for r, n := range cols {
		cells[r], flat = flat[:n:n], flat[n:]
	}
	return cells, nil
}

// rect is the column list of a rectangular sweep: rows rows of cols
// cells each.
func rect(rows, cols int) []int {
	n := make([]int, rows)
	for r := range n {
		n[r] = cols
	}
	return n
}

// ArtifactFlags declares the per-run artifact flags on fs, bound to
// c: -metrics-out, -sample-every, -trace-out, -trace-sample,
// -profile-out, -profile-sample and -pcap-out.
func (c *Config) ArtifactFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsDir, "metrics-out", "", "write telemetry artifacts (csv timeline + prom snapshot) under this directory")
	fs.DurationVar(&c.SampleEvery, "sample-every", 0, "flight-recorder tick in virtual time (0 = 50ms default)")
	fs.StringVar(&c.TraceDir, "trace-out", "", "write packet-lifecycle traces (Perfetto JSON) under this directory")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "trace 1 packet in N (0 = 64 default; needs -trace-out)")
	fs.StringVar(&c.ProfileDir, "profile-out", "", "write dual-domain profiles (gzipped pprof) under this directory")
	fs.IntVar(&c.ProfileSample, "profile-sample", 0, "kernel profiler samples 1 event in N (0 = 16 default; needs -profile-out)")
	fs.StringVar(&c.PcapDir, "pcap-out", "", "write each run's client-side wire capture as pcap under this directory")
}

// observing reports whether the configuration asks for per-run
// artifacts (any of MetricsDir, TraceDir, ProfileDir, PcapDir).
func (c Config) observing() bool {
	return c.MetricsDir != "" || c.TraceDir != "" || c.ProfileDir != "" || c.PcapDir != ""
}

// observeOptions returns the observability pillars the configuration
// selects: the recorder tick always, the tracer when TraceDir is set,
// the profiler when ProfileDir is set, the wire capture when PcapDir
// is set.
func (c Config) observeOptions() core.ObserveOptions {
	opt := core.ObserveOptions{SampleEvery: c.SampleEvery, Capture: c.PcapDir != ""}
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
