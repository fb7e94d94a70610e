package barbican_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/experiment"
	"barbican/internal/obs"
)

// metricInventory lists every metric name the registries hold, each
// with its label keys (not their values), as "name{key,...}", sorted
// and deduplicated.
func metricInventory(regs ...*obs.Registry) []string {
	seen := map[string]bool{}
	var out []string
	for _, reg := range regs {
		for _, in := range reg.Infos() {
			keys := make([]string, len(in.Labels))
			for i, l := range in.Labels {
				keys[i] = l.Key
			}
			line := in.Name
			if len(keys) > 0 {
				line += "{" + strings.Join(keys, ",") + "}"
			}
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricInventory pins the metric names, and their label keys, an
// observed run publishes: a chaos point whose target card has a flow
// cache and a conntrack table and whose policy plane is up, a filtered
// bandwidth point (the per-rule series), and the executor snapshot.
// Every number is published once, so a series that restates another
// shows up as a diff against testdata/metrics.golden; `go test -run
// TestMetricInventory . -update` rewrites it.
func TestMetricInventory(t *testing.T) {
	_, chaos, err := core.RunChaosObserved(core.ChaosScenario{
		Device:       core.DeviceStateful,
		FloodRatePPS: 2000,
		Duration:     1500 * time.Millisecond,
	}, core.ObserveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, filtered, err := core.RunBandwidthObserved(core.Scenario{
		Device:   core.DeviceEFW,
		Depth:    2,
		Duration: 100 * time.Millisecond,
	}, core.ObserveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	executor := obs.NewRegistry()
	new(experiment.Accounting).Publish(executor, time.Second, 1)

	got := []byte(strings.Join(metricInventory(chaos.Registry, filtered.Registry, executor), "\n") + "\n")
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metric inventory differs from %s (rerun with -update after a deliberate change):\n%s",
			golden, lineDiff(string(want), string(got)))
	}
}
