package experiment

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/faults"
	"barbican/internal/link"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/trace"
)

// wallSeries are the registry series that measure the host rather than
// the simulation; they differ between any two runs.
var wallSeries = []string{"sim_wall_busy_seconds"}

func isWall(s string) bool {
	for _, w := range wallSeries {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// simulatedBytes returns an artifact's content minus the wall-clock
// series: the snapshot lines and timeline CSV columns that carry them
// are dropped. Every other file is returned as is.
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
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: empty CSV", path)
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

// TestArtifactSet pins the files one observed point writes with every
// artifact directory set, plus its experiment's figure data: each
// artifact in exactly one encoding.
func TestArtifactSet(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Quick: true, Duration: 200 * time.Millisecond, Parallel: 1,
		MetricsDir: filepath.Join(root, "metrics"), TraceDir: filepath.Join(root, "trace"),
		ProfileDir: filepath.Join(root, "profile"), PcapDir: filepath.Join(root, "pcap")}
	fig, err := bandwidthVsDepth(cfg, "fig2", "one point", []depthSeries{{core.DeviceEFW, []int{4}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteArtifacts(cfg.MetricsDir, "fig2"); err != nil {
		t.Fatal(err)
	}
	var got []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		got = append(got, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{
		"metrics/fig2.figure.csv",
		"metrics/fig2/efw_depth-4.csv",
		"metrics/fig2/efw_depth-4.rules.csv",
		"metrics/fig2/efw_depth-4.snapshot.prom",
		"pcap/fig2/efw_depth-4.pcap",
		"profile/fig2/efw_depth-4.cost.pprof",
		"profile/fig2/efw_depth-4.kernel.pprof",
		"trace/fig2/efw_depth-4.trace.json",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("artifact set:\n got  %q\n want %q", got, want)
	}
}

// TestWritePCAPReportsTruncation: a capture pushed past
// trace.CaptureLimit still writes its retained tail, and writePCAP
// names the file, the dropped count and the first retained timestamp
// in one warning line. A capture within the limit warns nothing.
func TestWritePCAPReportsTruncation(t *testing.T) {
	k := sim.NewKernel()
	a, _ := link.New(k, link.Config{QueueFrames: trace.CaptureLimit + 2})
	capture := trace.NewCapture(k)
	capture.Tap(a)
	send := func(n int) {
		for i := 0; i < n; i++ {
			if !a.Send(&packet.Frame{Type: packet.EtherTypeIPv4, Payload: []byte{byte(i)}}) {
				t.Fatalf("frame %d refused", i)
			}
		}
	}
	dir := t.TempDir()
	var warn bytes.Buffer
	send(2)
	if err := writePCAP(dir, "short", capture, &warn); err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Fatalf("a capture within the limit warned %q", warn.String())
	}
	k.At(1500*time.Millisecond, func() { send(trace.CaptureLimit) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := writePCAP(dir, "long", capture, &warn); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "long.pcap")
	want := path + ": capture limit of 65536 records reached; dropped the first 2, file starts at 1.5s\n"
	if warn.String() != want {
		t.Errorf("warning %q, want %q", warn.String(), want)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("truncated capture not written: %v", err)
	}
}
