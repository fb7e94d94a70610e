package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string for the text exposition: the
// format reserves backslash escapes and is line-oriented, so literal
// backslashes and newlines must travel as \\ and \n or they corrupt
// the output (a raw newline would start a bogus exposition line).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePromText writes a point-in-time snapshot of the registry in
// Prometheus text exposition format — exactly what a /metrics scrape of
// the run would return at the current virtual instant.
func (r *Registry) WritePromText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	samples := r.Gather()
	for _, fam := range familyOrder(samples) {
		first := true
		for _, sv := range samples {
			if sv.Name != fam {
				continue
			}
			if first {
				first = false
				if sv.Help != "" {
					fmt.Fprintf(bw, "# HELP %s %s\n", fam, escapeHelp(sv.Help))
				}
				fmt.Fprintf(bw, "# TYPE %s %s\n", fam, sv.Kind)
			}
			fmt.Fprintf(bw, "%s %s\n", sv.ID, formatValue(sv.Value))
		}
	}
	return bw.Flush()
}

// familyOrder returns distinct family names in first-appearance order,
// so an exposition groups each family's series under one TYPE line.
func familyOrder(samples []SampleValue) []string {
	var fams []string
	seen := make(map[string]bool)
	for _, sv := range samples {
		if !seen[sv.Name] {
			seen[sv.Name] = true
			fams = append(fams, sv.Name)
		}
	}
	return fams
}

// WriteCSV writes the timeline as a wide CSV: a time_s column, one
// column per series (cumulative values as sampled), and a trailing
// rate:<id> column per counter series holding the per-second first
// difference — the instantaneous-rate view (goodput, deny rate, …).
// Cells for ticks taken before a series existed are left empty.
func (rec *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	infos := rec.reg.Infos()
	bw.WriteString("time_s")
	for _, in := range infos {
		bw.WriteString(",")
		bw.WriteString(csvEscape(in.ID))
	}
	var rateCols []int
	for i, in := range infos {
		if in.Kind == KindCounter {
			rateCols = append(rateCols, i)
			bw.WriteString(",")
			bw.WriteString(csvEscape("rate:" + in.ID))
		}
	}
	bw.WriteByte('\n')

	ticks := rec.ticks
	for ti, t := range ticks {
		fmt.Fprintf(bw, "%.6f", t.At.Seconds())
		for i := range infos {
			bw.WriteByte(',')
			if i < len(t.Values) {
				bw.WriteString(formatValue(t.Values[i]))
			}
		}
		for _, i := range rateCols {
			bw.WriteByte(',')
			if ti == 0 {
				continue
			}
			prev := ticks[ti-1]
			dt := t.At - prev.At
			if i >= len(t.Values) || i >= len(prev.Values) || dt <= 0 {
				continue
			}
			bw.WriteString(formatValue((t.Values[i] - prev.Values[i]) / dt.Seconds()))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// SanitizeName maps an arbitrary label to a filesystem- and
// metrics-friendly token: lowercase, [a-z0-9_-] only.
func SanitizeName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		case r == '_', r == ' ', r == '/', r == '(', r == ')':
			// Underscore runs — literal or from separators — collapse to
			// one ("ADF (VPG)_rate" → "adf_vpg_rate", not "adf_vpg__rate").
			if out := b.String(); out != "" && out[len(out)-1] != '_' {
				b.WriteByte('_')
			}
		}
	}
	out := strings.Trim(b.String(), "_")
	if out == "" {
		return "run"
	}
	return out
}

// WriteRunArtifacts writes one run's telemetry under dir as <base>.csv
// (the recorded timeline, when rec is non-nil) and <base>.snapshot.prom
// (the final scrape-style snapshot, with HELP and TYPE). It returns the
// paths written.
func WriteRunArtifacts(dir, base string, reg *Registry, rec *Recorder) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: artifacts dir: %w", err)
	}
	base = SanitizeName(base)
	var paths []string
	write := func(name string, fn func(io.Writer) error) error {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: write %s: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("obs: close %s: %w", p, err)
		}
		paths = append(paths, p)
		return nil
	}
	if rec != nil {
		if err := write(base+".csv", rec.WriteCSV); err != nil {
			return paths, err
		}
	}
	if err := write(base+".snapshot.prom", reg.WritePromText); err != nil {
		return paths, err
	}
	return paths, nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
