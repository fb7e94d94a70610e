package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"barbican/internal/core"
	"barbican/internal/obs"
	"barbican/internal/obs/profile"
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
// writes its artifacts (see WriteRunArtifacts) under
// <dir>/<exp>/<label>. Profiled points carry their merged cost profile
// (CostProfile) back to the caller for per-experiment aggregation.
func (f family[S, P]) point(cfg Config, exp, label string, s S) (P, error) {
	if !cfg.Observing() {
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
	p, inst, err := f.observed(s, cfg.ObserveOptions())
	if err != nil {
		return p, nil, err
	}
	out := f.outcome(p)
	cfg.account(1, out.SimSeconds, out.WallBusy)
	if _, err := cfg.WriteRunArtifacts(exp, label, out, inst); err != nil {
		return p, nil, fmt.Errorf("%s/%s: %w", exp, label, err)
	}
	return p, inst, nil
}

// WriteRunArtifacts writes one observed run's artifacts to the
// directories cfg selects, each joined with exp:
// <MetricsDir>/<exp>/<label>.{prom,csv,json,snapshot.prom} plus the
// per-rule breakdown <label>.rules.{csv,json} for filtered runs,
// <TraceDir>/<exp>/<label>.trace.{json,txt}, and
// <ProfileDir>/<exp>/<label>.{cost,kernel}.{pprof,folded}. It returns
// the telemetry, trace and profile paths in that order.
func (c Config) WriteRunArtifacts(exp, label string, out core.Outcome, inst *core.Instrumentation) ([]string, error) {
	var paths []string
	if c.MetricsDir != "" {
		dir := filepath.Join(c.MetricsDir, exp)
		mp, err := inst.WriteArtifacts(dir, label)
		if err != nil {
			return nil, err
		}
		paths = append(paths, mp...)
		if out.Attribution != nil {
			if err := WriteRuleAttribution(dir, label, out.Attribution); err != nil {
				return nil, err
			}
		}
	}
	if c.TraceDir != "" {
		tp, err := inst.WriteTraceArtifacts(filepath.Join(c.TraceDir, exp), label)
		if err != nil {
			return nil, err
		}
		paths = append(paths, tp...)
	}
	if c.ProfileDir != "" {
		pp, err := inst.WriteProfileArtifacts(filepath.Join(c.ProfileDir, exp), label)
		if err != nil {
			return nil, err
		}
		paths = append(paths, pp...)
	}
	return paths, nil
}

// writeMergedCostProfile merges per-point cost profiles (in the order
// given, which callers keep in declaration order so the merged bytes
// are parallelism-independent) and writes them as
// <ProfileDir>/<exp>/<exp>.cost.{pprof,folded}. No-op without
// cfg.ProfileDir.
func writeMergedCostProfile(cfg Config, exp string, parts []*profile.Data) error {
	if cfg.ProfileDir == "" {
		return nil
	}
	merged := profile.NewData(profile.CostSampleTypes, "cost")
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			return fmt.Errorf("%s: merge cost profile: %w", exp, err)
		}
	}
	dir := filepath.Join(cfg.ProfileDir, exp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, obs.SanitizeName(exp))
	if err := merged.WritePprofFile(base + ".cost.pprof"); err != nil {
		return err
	}
	return merged.WriteFoldedFile(base + ".cost.folded")
}

// WriteRuleAttribution writes a run's per-rule firewall breakdown as
// <dir>/<label>.rules.{csv,json}: one row per rule with hit count and
// the profile's predicted walk cost/latency at that rule's position,
// plus a final default-action row.
func WriteRuleAttribution(dir, label string, a *core.RuleAttribution) error {
	writeCSV := func(w io.Writer) error {
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
	}
	writeJSON := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(a)
	}
	return writeArtifactPair(dir, label+".rules", writeCSV, writeJSON)
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

// WriteJSON writes the figure as a machine-readable JSON document.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
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

// WriteJSON writes the table as a machine-readable JSON document.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// WriteFigureArtifacts writes <dir>/<name>.figure.{csv,json}.
func WriteFigureArtifacts(dir, name string, f *Figure) error {
	return writeArtifactPair(dir, name+".figure", f.WriteCSV, f.WriteJSON)
}

// WriteTableArtifacts writes <dir>/<name>.table.{csv,json}.
func WriteTableArtifacts(dir, name string, t *Table) error {
	return writeArtifactPair(dir, name+".table", t.WriteCSV, t.WriteJSON)
}

func writeArtifactPair(dir, base string, csvFn, jsonFn func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: artifacts dir: %w", err)
	}
	base = obs.SanitizeName(base)
	for _, out := range []struct {
		ext string
		fn  func(io.Writer) error
	}{{".csv", csvFn}, {".json", jsonFn}} {
		p := filepath.Join(dir, base+out.ext)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := out.fn(f); err != nil {
			f.Close()
			return fmt.Errorf("experiment: write %s: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("experiment: close %s: %w", p, err)
		}
	}
	return nil
}
