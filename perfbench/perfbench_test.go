package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/profile"
)

var update = flag.Bool("update", false, "rewrite fingerprints.json from the simulator")

// testWindow is the simulated window of the short runs the tests make.
const testWindow = time.Second

func simulate(t *testing.T, w *workload, seed int64, window time.Duration) *scenario {
	t.Helper()
	sc, err := w.build(seed, window)
	if err != nil {
		t.Fatalf("%s seed %d: set up: %v", w.name, seed, err)
	}
	if err := sc.run(); err != nil {
		t.Fatalf("%s seed %d: simulate: %v", w.name, seed, err)
	}
	return sc
}

// result is the part of a simulated outcome the product runners report.
type result struct {
	SimSeconds    float64
	Iperf         measure.IperfResult
	FloodSent     uint64
	Target        nic.Stats
	SessionSent   uint64
	SessionEchoed uint64
	SessionReset  bool
	Conntrack     conntrack.Stats
	CTEntries     int
}

func resultOf(sc *scenario) result {
	o := sc.outcome()
	return result{
		SimSeconds:    time.Duration(o.fp.SimNS).Seconds(),
		Iperf:         o.iperf,
		FloodSent:     o.fp.FloodSent,
		Target:        sc.tb.Target.NIC().Stats(),
		SessionSent:   o.fp.SessionSent,
		SessionEchoed: o.fp.SessionEchoed,
		SessionReset:  o.fp.SessionReset,
		Conntrack:     o.fp.Conntrack,
		CTEntries:     o.fp.CTEntries,
	}
}

func bandwidthResult(p core.BandwidthPoint) result {
	return result{SimSeconds: p.SimSeconds, Iperf: p.Iperf, FloodSent: p.FloodSent, Target: p.TargetNIC}
}

// TestCrossCheckCoreRunners holds each workload's scenario to the product
// runner it reproduces: at the same seed and window, both must simulate
// exactly the same result.
func TestCrossCheckCoreRunners(t *testing.T) {
	cases := []struct {
		workload string
		runner   func(seed int64) (result, error)
	}{
		{"flood-walk", func(seed int64) (result, error) {
			p, err := core.RunBandwidth(core.Scenario{
				Device: core.DeviceEFW, Depth: floodWalkDepth,
				FloodRatePPS: floodWalkPPS, FloodAllowed: true,
				Duration: testWindow, Seed: seed,
			})
			return bandwidthResult(p), err
		}},
		{"vpg-bulk", func(seed int64) (result, error) {
			p, err := core.RunBandwidth(core.Scenario{
				Device: core.DeviceADFVPG, Depth: 1,
				Duration: testWindow, Seed: seed,
			})
			return bandwidthResult(p), err
		}},
		{"syn-churn", func(seed int64) (result, error) {
			p, err := core.RunStateflood(core.StatefloodScenario{
				Depth: synChurnDepth, FloodRatePPS: synChurnPPS, SpoofCount: synChurnSources,
				Duration: testWindow, Seed: seed,
			})
			return result{
				SimSeconds: p.SimSeconds, FloodSent: p.FloodSent, Target: p.TargetNIC,
				SessionSent: p.SessionSent, SessionEchoed: p.SessionEchoed, SessionReset: p.SessionReset,
				Conntrack: p.Conntrack, CTEntries: p.CTEntries,
			}, err
		}},
	}
	for _, c := range cases {
		for _, seed := range []int64{defaultSeed, 7} {
			want, err := c.runner(seed)
			if err != nil {
				t.Fatalf("%s seed %d: core runner: %v", c.workload, seed, err)
			}
			got := resultOf(simulate(t, lookupWorkload(c.workload), seed, testWindow))
			if got != want {
				t.Errorf("%s seed %d: the benchmark simulated\n%+v\nbut the core runner\n%+v", c.workload, seed, got, want)
			}
		}
	}
}

// TestLawsHoldAcrossSeeds runs every workload on several seeds: each
// conservation law and regime check must hold whatever the seed.
func TestLawsHoldAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			o := simulate(t, w, seed, testWindow).outcome()
			for _, v := range o.violations {
				t.Errorf("%s seed %d: %s", w.name, seed, v)
			}
			if err := w.regime(o); err != nil {
				t.Errorf("%s seed %d: regime: %v", w.name, seed, err)
			}
		}
	}
}

// TestDefaultSeedFingerprints simulates each workload at the default seed
// and window and compares its fingerprint with fingerprints.json. Run it
// with -update to rewrite the file after an intended change to simulated
// results.
func TestDefaultSeedFingerprints(t *testing.T) {
	got := make(map[string]fingerprint, len(workloads))
	for _, w := range workloads {
		got[w.name] = simulate(t, w, defaultSeed, benchWindow).outcome().fp
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("fingerprints.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		want, err := pinnedFingerprint(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[w.name], want) {
			t.Errorf("%s: fingerprint\n%s\ndiffers from the pinned\n%s", w.name, asJSON(got[w.name]), asJSON(want))
		}
	}
}

// TestHandlerSymbolsMapToLayers runs every workload under the step
// profiler and checks that each event handler belongs to a named layer.
// Only the benchmark's own closures may fall to other, and together they
// stay under otherShareBound of the kernel's wall time.
func TestHandlerSymbolsMapToLayers(t *testing.T) {
	for _, w := range workloads {
		sc, err := w.build(defaultSeed, testWindow)
		if err != nil {
			t.Fatal(err)
		}
		kp := profile.NewKernelProfiler(1)
		sc.tb.Kernel.SetStepProfiler(kp)
		if err := sc.run(); err != nil {
			t.Fatal(err)
		}
		var other time.Duration
		for _, site := range kp.Sites() {
			l, ok := layerOf(site.Name)
			switch {
			case !ok:
				t.Errorf("%s: handler %s belongs to no layer", w.name, site.Name)
			case l == otherLayer && !ownSymbol(site.Name):
				t.Errorf("%s: handler %s falls to other instead of a named layer", w.name, site.Name)
			case l == otherLayer:
				other += site.Wall
			}
		}
		if share := other.Seconds() / sc.tb.Kernel.WallBusy().Seconds(); share > otherShareBound {
			t.Errorf("%s: the benchmark's own handlers took %.2f%% of kernel wall time, over %.0f%%",
				w.name, 100*share, 100*otherShareBound)
		}
	}
}

// TestLedgerReconciles makes a short traced run of every workload: every
// per-layer metric is reported, and the layers add up to the traced wall
// time and allocations within the stated bounds.
func TestLedgerReconciles(t *testing.T) {
	for _, w := range workloads {
		b, err := newBench(w, 7, testWindow, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		r, err := b.ledger(0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, m := range perLayerMetrics() {
			if _, ok := r.Metrics[m.name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.name, m.name)
			}
		}
		ns := r.Metrics["ledger.unattributed_ratio"].Value
		allocs := r.Metrics["ledger.alloc_unattributed_ratio"].Value
		t.Logf("%s: unattributed wall %.4f, allocations %.4f", w.name, ns, allocs)
		if math.Abs(ns) > ledgerBound || !r.Correct {
			t.Errorf("%s: ledger does not reconcile: unattributed wall %.4f (bound %g), allocations %.4f, %d of %d runs failed",
				w.name, ns, ledgerBound, allocs, r.Failed, r.Attempted)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, at the repository root,
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []listed `json:"workloads"`
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		key    string
		listed []listed
		want   []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics()}} {
		var got []metricSpec
		for _, m := range c.listed {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json %s lists %v, the program reports %v", c.key, got, c.want)
		}
	}
}
