package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"barbican/internal/core"
	"barbican/internal/obs"
	"barbican/internal/trace"
)

// family pairs one core scenario family's plain and observed entry
// points with the accessor for its points' shared outcome.
type family[S, P any] struct {
	run      func(S) (P, error)
	observed func(S, core.ObserveOptions) (P, *core.Instrumentation, error)
	outcome  func(P) core.Outcome
}

// The scenario families the experiments run.
var (
	bandwidthRuns = family[core.Scenario, core.BandwidthPoint]{core.RunBandwidth, core.RunBandwidthObserved,
		func(p core.BandwidthPoint) core.Outcome { return p.Outcome }}
	chaosRuns = family[core.ChaosScenario, core.ChaosPoint]{core.RunChaos, core.RunChaosObserved,
		func(p core.ChaosPoint) core.Outcome { return p.Outcome }}
	detectRuns = family[core.DetectionScenario, core.DetectionPoint]{core.RunDetection, core.RunDetectionObserved,
		func(p core.DetectionPoint) core.Outcome { return p.Outcome }}
	statefloodRuns = family[core.StatefloodScenario, core.StatefloodPoint]{core.RunStateflood, core.RunStatefloodObserved,
		func(p core.StatefloodPoint) core.Outcome { return p.Outcome }}
)

// point is the experiments' one run path: it runs s — plainly when cfg
// asks for no artifacts, observed otherwise — accounts the point, and
// writes its artifacts (see writeRunArtifacts) under
// <dir>/<exp>/<label>.
func (f family[S, P]) point(cfg Config, exp, label string, s S) (P, error) {
	if !cfg.observing() {
		p, err := f.run(s)
		if err == nil {
			out := f.outcome(p)
			cfg.account(1, out.SimSeconds, out.WallBusy)
		}
		return p, err
	}
	p, _, err := f.observe(cfg, exp, label, s)
	return p, err
}

// observe is point for callers that read the run's recorder
// themselves: the run is observed even when cfg writes no artifacts.
func (f family[S, P]) observe(cfg Config, exp, label string, s S) (P, *core.Instrumentation, error) {
	p, inst, err := f.observed(s, cfg.observeOptions())
	if err != nil {
		return p, nil, err
	}
	out := f.outcome(p)
	cfg.account(1, out.SimSeconds, out.WallBusy)
	if err := cfg.writeRunArtifacts(exp, label, out, inst); err != nil {
		return p, nil, fmt.Errorf("%s/%s: %w", exp, label, err)
	}
	return p, inst, nil
}

// writeRunArtifacts writes one observed run's artifacts to the
// directories cfg selects, each joined with exp:
// <MetricsDir>/<exp>/<label>.{csv,snapshot.prom} plus the per-rule
// breakdown <label>.rules.csv for filtered runs,
// <TraceDir>/<exp>/<label>.trace.json,
// <ProfileDir>/<exp>/<label>.{cost,kernel}.pprof and
// <PcapDir>/<exp>/<label>.pcap.
func (c Config) writeRunArtifacts(exp, label string, out core.Outcome, inst *core.Instrumentation) error {
	if c.MetricsDir != "" {
		dir := filepath.Join(c.MetricsDir, exp)
		if err := writeArtifact(dir, label, ".csv", inst.Recorder.WriteCSV); err != nil {
			return err
		}
		if err := writeArtifact(dir, label, ".snapshot.prom", inst.Registry.WritePromText); err != nil {
			return err
		}
		if out.Attribution != nil {
			if err := WriteRuleAttribution(dir, label, out.Attribution); err != nil {
				return err
			}
		}
	}
	if c.TraceDir != "" {
		err := writeArtifact(filepath.Join(c.TraceDir, exp), label, ".trace.json", func(w io.Writer) error {
			return inst.Tracer.WritePerfetto(w, inst.TraceExportOptions())
		})
		if err != nil {
			return err
		}
	}
	if c.ProfileDir != "" {
		dir := filepath.Join(c.ProfileDir, exp)
		if err := writeArtifact(dir, label, ".cost.pprof", inst.Profiling.CostData().WritePprof); err != nil {
			return err
		}
		if err := writeArtifact(dir, label, ".kernel.pprof", inst.Profiling.KernelData().WritePprof); err != nil {
			return err
		}
	}
	if c.PcapDir != "" {
		return writePCAP(filepath.Join(c.PcapDir, exp), label, inst.Capture, os.Stderr)
	}
	return nil
}

// writePCAP writes a run's wire capture as <dir>/<label>.pcap. A
// capture that passed trace.CaptureLimit holds only the run's tail, so
// writePCAP then prints one line to warn naming the file, the dropped
// record count and the first retained timestamp.
func writePCAP(dir, label string, capture *trace.Capture, warn io.Writer) error {
	if err := writeArtifact(dir, label, ".pcap", capture.WritePCAP); err != nil {
		return err
	}
	if n := capture.Dropped(); n > 0 {
		fmt.Fprintf(warn, "%s: capture limit of %d records reached; dropped the first %d, file starts at %v\n",
			artifactPath(dir, label, ".pcap"), trace.CaptureLimit, n, capture.Records()[0].At)
	}
	return nil
}

// WriteRuleAttribution writes a run's per-rule firewall breakdown as
// <dir>/<label>.rules.csv: one row per rule with hit count and
// the profile's predicted walk cost/latency at that rule's position,
// plus a final default-action row.
func WriteRuleAttribution(dir, label string, a *core.RuleAttribution) error {
	return writeArtifact(dir, label+".rules", ".csv", func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"rule_index", "rule", "hits", "cost_units", "latency_us"}); err != nil {
			return err
		}
		for _, r := range a.Rules {
			err := cw.Write([]string{
				fmt.Sprintf("%d", r.Index), r.Text, fmt.Sprintf("%d", r.Hits),
				fmt.Sprintf("%g", r.CostUnits), fmt.Sprintf("%g", float64(r.Latency.Nanoseconds())/1e3),
			})
			if err != nil {
				return err
			}
		}
		err := cw.Write([]string{
			"default", fmt.Sprintf("default (%d rules walked)", len(a.Rules)),
			fmt.Sprintf("%d", a.DefaultHits),
			fmt.Sprintf("%g", a.DefaultCost), fmt.Sprintf("%g", float64(a.DefaultLatency.Nanoseconds())/1e3),
		})
		if err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	})
}

// WriteCSV writes the figure as long-form CSV: series,x,y,note.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel, "note"}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			err := cw.Write([]string{s.Label, fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y), p.Note})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes the table as CSV, header row first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteArtifacts writes <dir>/<name>.figure.csv.
func (f *Figure) WriteArtifacts(dir, name string) error {
	return writeArtifact(dir, name+".figure", ".csv", f.WriteCSV)
}

// WriteArtifacts writes <dir>/<name>.table.csv.
func (t *Table) WriteArtifacts(dir, name string) error {
	return writeArtifact(dir, name+".table", ".csv", t.WriteCSV)
}

// artifactPath is the one artifact layout: <dir>/<base><ext>, with
// base sanitized (obs.SanitizeName).
func artifactPath(dir, base, ext string) string {
	return filepath.Join(dir, obs.SanitizeName(base)+ext)
}

// writeArtifact writes artifactPath(dir, base, ext) with fn, creating
// dir. It is the only code that creates artifact files.
func writeArtifact(dir, base, ext string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: artifacts dir: %w", err)
	}
	p := artifactPath(dir, base, ext)
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("experiment: write %s: %w", p, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiment: close %s: %w", p, err)
	}
	return nil
}
