package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// renderStatefloodArtifacts runs the whole stateflood family and
// renders every artifact form (text, markdown, CSV) — the byte stream
// the determinism test compares across worker counts and with
// testdata/stateflood.golden.
func renderStatefloodArtifacts(t *testing.T, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer
	fig, err := StatefloodCurves(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(fig.Render())
	out.WriteString(fig.Markdown())
	if err := fig.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(Config) (*Table, error){
		StatefloodThresholds, StatefloodACK, StatefloodRecovery,
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
	return out.Bytes()
}

// TestStatefloodDeterminism: a fixed seed yields byte-identical
// stateflood output serially, at -parallel 8 and to the golden. Conntrack eviction
// draws from a kernel-seeded private generator and every point owns a
// private kernel, so worker count must not leak into any rendered byte.
func TestStatefloodDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full stateflood regeneration; skipped in -short")
	}
	base := Config{Quick: true, Seed: 7}

	serialCfg := base
	serialCfg.Parallel = 1
	serial := renderStatefloodArtifacts(t, serialCfg)

	parallelCfg := base
	parallelCfg.Parallel = 8
	parallel := renderStatefloodArtifacts(t, parallelCfg)

	if d := firstDiff("serial", serial, "parallel", parallel); d != "" {
		t.Fatalf("stateflood artifacts of serial and parallel runs %s", d)
	}
	checkGolden(t, "stateflood", serial)
}

// TestStatefloodThresholdOrdering checks the family's headline result:
// state-table exhaustion (SYN flood vs the LRU table) DoSes the session
// at a packet rate strictly below the stateless packet-rate bound for
// the same card, and syn-early-drop pushes the bound back up.
func TestStatefloodThresholdOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full threshold search; skipped in -short")
	}
	tab, err := StatefloodThresholds(Config{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rate := func(label string) float64 {
		t.Helper()
		for _, row := range tab.Rows {
			if row[0] != label {
				continue
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatalf("%s: unparseable rate %q (search exhausted?)", label, row[1])
			}
			return v
		}
		t.Fatalf("missing row %q in %v", label, tab.Rows)
		return 0
	}
	lru := rate("SYN flood / evict lru")
	synDrop := rate("SYN flood / evict syn-drop")
	stateless := rate("UDP flood / stateless policy (bandwidth criterion)")
	if lru >= stateless {
		t.Errorf("state exhaustion (%g pps) is not cheaper than the stateless packet-rate bound (%g pps)",
			lru, stateless)
	}
	if synDrop <= lru {
		t.Errorf("syn-drop threshold (%g pps) does not improve on lru (%g pps)", synDrop, lru)
	}
}

// TestStatefloodRecoveryTable checks the desync narrative end to end:
// keep severs the mid-outage flow, flush severs the pre-outage flows,
// resync keeps everything alive.
func TestStatefloodRecoveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full recovery sweep; skipped in -short")
	}
	tab, err := StatefloodRecovery(Config{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := make(map[string][]string)
	for _, row := range tab.Rows {
		byPolicy[row[0]] = append([]string(nil), row...)
	}
	check := func(policy, pre, mid, fresh string) {
		t.Helper()
		row := byPolicy[policy]
		if row == nil {
			t.Fatalf("missing row %q in %v", policy, tab.Rows)
		}
		if row[1] != pre || row[2] != mid || row[3] != fresh {
			t.Errorf("%s: pre/mid/new = %q/%q/%q, want %q/%q/%q",
				policy, row[1], row[2], row[3], pre, mid, fresh)
		}
	}
	check("keep", "yes", "SEVERED", "yes")
	check("flush", "SEVERED", "SEVERED", "yes")
	check("resync", "yes", "yes", "yes")
	if row := byPolicy["keep"]; row != nil && !strings.Contains(row[5], "desync") {
		t.Errorf("keep row note does not name the desync hazard: %v", row)
	}
}
