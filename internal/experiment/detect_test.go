package experiment

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"barbican/internal/telemetry"
)

// renderDetectArtifacts runs the detection family and renders every
// artifact form — the byte stream the determinism test compares across
// worker counts and with testdata/detect.golden. The exposure and
// false-positive tables carry the responsive push and the benign
// bursts; FleetHealth's rendered timeline exposes every transition
// timestamp, the most divergence-sensitive output the plane produces.
func renderDetectArtifacts(t *testing.T, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer
	fig, err := DetectionLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(fig.Render())
	out.WriteString(fig.Markdown())
	if err := fig.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(Config) (*Table, error){
		DetectionExposure, DetectionChaos, DetectionFalsePositives,
	} {
		tab, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tab.Render())
		out.WriteString(tab.Markdown())
		if err := tab.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
	}
	health, err := FleetHealth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(health)
	return out.Bytes()
}

// TestDetectionDeterminism: detection artifacts — time-to-detect,
// exposure windows, alert timelines — are byte-identical serially, at
// -parallel 8 and to the golden for a fixed seed pair. Alert timestamps come from
// per-point private kernels in virtual time, so worker count must not
// leak into any rendered byte.
func TestDetectionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection regeneration; skipped in -short")
	}
	base := Config{Quick: true, Seed: 7, FaultSeed: 42}

	serialCfg := base
	serialCfg.Parallel = 1
	serial := renderDetectArtifacts(t, serialCfg)

	parallelCfg := base
	parallelCfg.Parallel = 8
	parallel := renderDetectArtifacts(t, parallelCfg)

	if d := firstDiff("serial", serial, "parallel", parallel); d != "" {
		t.Fatalf("detection artifacts of serial and parallel runs %s", d)
	}
	checkGolden(t, "detect", serial)
}

// TestDetectionChaosTable checks the family's headline result at the
// experiment level: management-plane loss measurably widens both
// time-to-detect and the window of exposure versus the clean channel.
func TestDetectionChaosTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection regeneration; skipped in -short")
	}
	tab, err := DetectionChaos(Config{Quick: true, Seed: 7, FaultSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string][]string)
	for _, row := range tab.Rows {
		byLabel[row[0]] = row
	}
	clean, lossy := byLabel["clean mgmt"], byLabel["mgmt loss 60%"]
	if clean == nil || lossy == nil {
		t.Fatalf("missing clean/loss rows in %v", tab.Rows)
	}
	num := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	if num(lossy, 1) <= num(clean, 1) {
		t.Errorf("time-to-detect under 60%% loss (%s ms) not wider than clean (%s ms)",
			lossy[1], clean[1])
	}
	if num(lossy, 2) <= num(clean, 2) {
		t.Errorf("exposure at detect under 60%% loss (%s) not wider than clean (%s)",
			lossy[2], clean[2])
	}
	if num(lossy, 6) == 0 {
		t.Errorf("60%% loss produced no telemetry sequence gaps: %v", lossy)
	}
}

// TestWriteAlertTimelineCSVOnly: the alert timeline is written once, as
// CSV, with one row per transition under the five-field header.
func TestWriteAlertTimelineCSVOnly(t *testing.T) {
	dir := t.TempDir()
	tl := []telemetry.Transition{
		{At: 1500 * time.Millisecond, From: telemetry.AlertHealthy, To: telemetry.AlertSuspect, Signal: 812.5, Baseline: 3},
		{At: 1750 * time.Millisecond, From: telemetry.AlertSuspect, To: telemetry.AlertAlerting, Signal: 900, Baseline: 3},
	}
	if err := WriteAlertTimeline(dir, "target", tl); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "target.timeline.csv" {
		t.Fatalf("wrote %v, want only target.timeline.csv", names)
	}
	f, err := os.Open(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"at_s", "from", "to", "signal_pps", "baseline_pps"},
		{"1.5", "healthy", "suspect", "812.5", "3"},
		{"1.75", "suspect", "alerting", "900", "3"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("timeline CSV = %q, want %q", rows, want)
	}
}
