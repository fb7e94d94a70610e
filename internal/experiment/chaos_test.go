package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"barbican/internal/faults"
)

// renderChaosArtifacts runs the chaos family and renders every artifact
// form (text, markdown, CSV) — the byte stream the determinism test
// compares across worker counts and with testdata/chaos.golden.
func renderChaosArtifacts(t *testing.T, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer
	fig, err := ChaosBandwidth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ChaosConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(fig.Render())
	out.WriteString(fig.Markdown())
	if err := fig.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	out.WriteString(tab.Render())
	out.WriteString(tab.Markdown())
	if err := tab.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestChaosDeterminism: a fixed fault-plan seed yields byte-identical
// chaos experiment output serially, at -parallel 8 and to the golden. Fault injectors
// draw from private seeded generators and every point owns a private
// kernel, so worker count must not leak into any rendered byte.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos regeneration; skipped in -short")
	}
	base := Config{Quick: true, Seed: 7, FaultSeed: 42}

	serialCfg := base
	serialCfg.Parallel = 1
	serial := renderChaosArtifacts(t, serialCfg)

	parallelCfg := base
	parallelCfg.Parallel = 8
	parallel := renderChaosArtifacts(t, parallelCfg)

	if d := firstDiff("serial", serial, "parallel", parallel); d != "" {
		t.Fatalf("chaos artifacts of serial and parallel runs %s", d)
	}
	checkGolden(t, "chaos", serial)
}

// TestChaosConvergenceTable checks the family's headline result: the
// retrying push converges through loss and partition, and the legacy
// single-shot row does not.
func TestChaosConvergenceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos regeneration; skipped in -short")
	}
	tab, err := ChaosConvergence(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string][]string)
	for _, row := range tab.Rows {
		byLabel[row[1]] = append([]string(nil), row...)
	}
	for _, label := range []string{"clean mgmt", "mgmt loss 30%", "mgmt partition"} {
		row := byLabel[label]
		if row == nil {
			t.Fatalf("missing row %q in %v", label, tab.Rows)
		}
		if row[2] != "yes" {
			t.Errorf("%s: converged = %q, want yes (row %v)", label, row[2], row)
		}
	}
	legacy := byLabel["partition, no retry"]
	if legacy == nil {
		t.Fatalf("missing legacy row in %v", tab.Rows)
	}
	if legacy[2] != "no" {
		t.Errorf("legacy single-shot converged through a partition: %v", legacy)
	}
	if legacy[7] == "" {
		t.Errorf("legacy row has no terminal push error: %v", legacy)
	}
	// The partitioned-but-retrying row must show retries doing the work.
	if row := byLabel["mgmt partition"]; row[5] == "0" {
		t.Errorf("partition row shows no retries: %v", row)
	}
}

// TestChaosFaultsOverride: cfg.Faults (the -faults flag) collapses the
// condition sweep to the one custom plan.
func TestChaosFaultsOverride(t *testing.T) {
	plan, err := faults.ParsePlan("loss=0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Quick: true, Duration: 2 * time.Second, Faults: &plan}
	tab, err := ChaosConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("override produced %d rows, want 1: %v", len(tab.Rows), tab.Rows)
	}
	if !strings.Contains(tab.Rows[0][1], "loss=0.2") {
		t.Errorf("override row label = %q", tab.Rows[0][1])
	}
}
