package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"barbican/internal/faults"
)

// wallSeries are the registry series that measure the host rather than
// the simulation; they differ between any two runs.
var wallSeries = []string{"sim_wall_busy_seconds", "sim_speedup_ratio"}

func isWall(s string) bool {
	for _, w := range wallSeries {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// simulatedBytes returns an artifact's content minus the wall-clock
// series: Prometheus lines, CSV columns and JSON recorder series that
// carry them are dropped. Every other file is returned as is.
func simulatedBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case strings.HasSuffix(path, ".prom"):
		var out bytes.Buffer
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if !isWall(line) {
				out.WriteString(line)
			}
		}
		return out.Bytes()
	case strings.HasSuffix(path, ".csv"):
		rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil || len(rows) == 0 {
			return raw
		}
		var out bytes.Buffer
		w := csv.NewWriter(&out)
		for _, row := range rows {
			var kept []string
			for i, cell := range row {
				if !isWall(rows[0][i]) {
					kept = append(kept, cell)
				}
			}
			if err := w.Write(kept); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		return out.Bytes()
	case strings.HasSuffix(path, ".json") && !strings.HasSuffix(path, ".trace.json"):
		var doc map[string]any
		if json.Unmarshal(raw, &doc) != nil {
			return raw
		}
		if series, ok := doc["series"].([]any); ok {
			var kept []any
			for _, s := range series {
				if id, _ := s.(map[string]any)["id"].(string); !isWall(id) {
					kept = append(kept, s)
				}
			}
			doc["series"] = kept
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return raw
}

// artifactTree runs fn with every artifact flag set into a fresh
// directory and returns the files written, relative path → simulated
// bytes. Wall-domain kernel profiles are listed but not compared.
func artifactTree(t *testing.T, cfg Config, fn func(Config) error) map[string][]byte {
	t.Helper()
	root := t.TempDir()
	cfg.MetricsDir = filepath.Join(root, "metrics")
	cfg.TraceDir = filepath.Join(root, "trace")
	cfg.ProfileDir = filepath.Join(root, "profile")
	if err := fn(cfg); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.Contains(rel, ".kernel.") {
			files[rel] = nil
		} else {
			files[rel] = simulatedBytes(t, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestScenarioFamiliesArtifactsParallelIdentity: the chaos, detect and
// stateflood families honour the artifact flags per point, and what
// they write is independent of the worker count — the same file names,
// and byte-identical telemetry (minus the wall-clock series), traces,
// rule breakdowns and cost profiles at -parallel 1 and 4.
func TestScenarioFamiliesArtifactsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("observed family sweeps; skipped in -short")
	}
	families := []struct {
		name string
		run  func(Config) error
		// want is one per-point trace every run must write.
		want string
	}{
		{"chaos", func(cfg Config) error { _, err := ChaosBandwidth(cfg); return err },
			"trace/chaos-bandwidth/faults_loss0.2_rate-2000.trace.json"},
		{"detect", func(cfg Config) error { _, err := DetectionExposure(cfg); return err },
			"trace/detect-exposure/adf_depth-64.trace.json"},
		{"stateflood", func(cfg Config) error { _, err := StatefloodACK(cfg); return err },
			"trace/stateflood-ack/rate-8000.trace.json"},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			// One custom fault plan collapses the chaos and detect
			// condition sweeps to a single channel.
			base := Config{Quick: true, Duration: 1500 * time.Millisecond, Seed: 3,
				Faults: &faults.Plan{Loss: 0.2}, FaultSeed: 42}
			serial, parallel := base, base
			serial.Parallel, parallel.Parallel = 1, 4
			a := artifactTree(t, serial, fam.run)
			b := artifactTree(t, parallel, fam.run)

			names := func(m map[string][]byte) []string {
				var out []string
				for k := range m {
					out = append(out, k)
				}
				sort.Strings(out)
				return out
			}
			na, nb := names(a), names(b)
			if strings.Join(na, "\n") != strings.Join(nb, "\n") {
				t.Fatalf("file names differ:\n-parallel 1: %v\n-parallel 4: %v", na, nb)
			}
			if _, ok := a[filepath.FromSlash(fam.want)]; !ok {
				t.Fatalf("no %s among %v", fam.want, na)
			}
			var telemetry, traces, costs int
			for _, name := range na {
				switch {
				case strings.HasSuffix(name, ".trace.json"):
					traces++
				case strings.HasSuffix(name, ".cost.pprof"):
					costs++
				case strings.HasSuffix(name, ".snapshot.prom"):
					telemetry++
				}
				if !bytes.Equal(a[name], b[name]) {
					t.Errorf("%s differs between -parallel 1 and 4", name)
				}
			}
			if telemetry == 0 || traces != telemetry || costs != telemetry {
				t.Errorf("want one telemetry, trace and cost profile per point; got %d, %d, %d",
					telemetry, traces, costs)
			}
		})
	}
}
