package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
)

// floodScenario is a short Fig 3a-style collapse point: ADF at full
// depth under an allowed flood hot enough to saturate the card.
func floodScenario() Scenario {
	return Scenario{
		Device:       DeviceADF,
		Depth:        64,
		FloodRatePPS: 12_500,
		FloodAllowed: true,
		Duration:     500 * time.Millisecond,
	}
}

// TestTracedFloodDropCountersSumToTotalDrops is the PR's acceptance
// check: a traced flood run exports Perfetto trace_event JSON whose
// embedded drop-reason counters sum exactly to the target card's
// total dropped packets.
func TestTracedFloodDropCountersSumToTotalDrops(t *testing.T) {
	p, inst, err := RunBandwidthObserved(floodScenario(), ObserveOptions{Trace: tracing.Options{SampleEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Tracer == nil {
		t.Fatal("tracer not attached")
	}
	if inst.Tracer.Sampled() == 0 {
		t.Fatal("no packets sampled")
	}

	var buf bytes.Buffer
	opt := tracing.ExportOptions{Drops: dropCounters(inst), Counters: dropCounterTracks(inst)}
	if err := inst.Tracer.WritePerfetto(&buf, opt); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var sum uint64
	for k, v := range doc.OtherData {
		if !strings.HasPrefix(k, "drop_") {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("counter %s=%q not a number", k, v)
		}
		sum += n
	}
	total, err := strconv.ParseUint(doc.OtherData["drops_total"], 10, 64)
	if err != nil {
		t.Fatalf("drops_total %q not a number", doc.OtherData["drops_total"])
	}
	if sum != total {
		t.Fatalf("per-reason counters sum to %d, drops_total says %d", sum, total)
	}
	if nicTotal := inst.target.TotalDrops(); total != nicTotal {
		t.Fatalf("exported drops_total %d != target NIC total drops %d", total, nicTotal)
	}
	if total == 0 {
		t.Fatal("flood run recorded zero drops; scenario not saturating")
	}
	// A 12.5 kpps flood against a 64-rule ADF is the paper's
	// CPU-exhaustion regime: that reason must dominate.
	drops := dropCounters(inst)
	if drops["cpu-exhausted"] == 0 {
		t.Fatalf("expected cpu-exhausted drops in collapse regime, got %v", drops)
	}
	_ = p
}

// simulated strips an outcome of what observation may legitimately
// change: the wall clock the run burned and the profile it carries.
func simulated(o Outcome) Outcome {
	o.WallBusy, o.CostProfile = 0, nil
	return o
}

// TestObservationDoesNotPerturbSimulation: attaching any mix of
// observability pillars must not change any simulated outcome. Every
// field of the point is compared against the unobserved run, for the
// bandwidth family's default settle-then-measure flood and its flood
// gated to a window inside the measurement, and for the chaos (with
// the install-time semantics proof), detection (with the responsive
// push) and stateflood families.
func TestObservationDoesNotPerturbSimulation(t *testing.T) {
	windowed := floodScenario()
	windowed.FloodStart = 100 * time.Millisecond
	windowed.FloodStop = 300 * time.Millisecond
	bandwidth := func(s Scenario) func(*ObserveOptions) (any, *Instrumentation, error) {
		return func(opt *ObserveOptions) (any, *Instrumentation, error) {
			p, inst, err := runBandwidth(s, opt)
			p.Outcome = simulated(p.Outcome)
			return p, inst, err
		}
	}
	families := []struct {
		name string
		run  func(opt *ObserveOptions) (any, *Instrumentation, error)
		// ran checks the plain run exercised what the row is for.
		ran func(p any) bool
	}{
		{"settled", bandwidth(floodScenario()), func(p any) bool { return p.(BandwidthPoint).FloodSent > 0 }},
		{"windowed", bandwidth(windowed), func(p any) bool { return p.(BandwidthPoint).FloodSent > 0 }},
		{"chaos", func(opt *ObserveOptions) (any, *Instrumentation, error) {
			p, inst, err := runChaos(ChaosScenario{
				Device: DeviceADF, FloodRatePPS: 2000,
				PushAt: 500 * time.Millisecond, Duration: 1500 * time.Millisecond,
				VerifySemantics: true,
			}, opt)
			p.Outcome = simulated(p.Outcome)
			return p, inst, err
		}, func(p any) bool { c := p.(ChaosPoint); return c.FloodSent > 0 && c.SemanticsVerified }},
		{"detect", func(opt *ObserveOptions) (any, *Instrumentation, error) {
			p, inst, err := runDetection(DetectionScenario{
				Device: DeviceADF, Depth: 64, FloodAllowed: true,
				FloodRatePPS: 8000, Duration: 2 * time.Second, Seed: 7,
				Respond: true,
			}, opt)
			p.Outcome = simulated(p.Outcome)
			return p, inst, err
		}, func(p any) bool { d := p.(DetectionPoint); return d.Detected && d.Converged && d.Reports > 0 }},
		{"stateflood", func(opt *ObserveOptions) (any, *Instrumentation, error) {
			p, inst, err := runStateflood(StatefloodScenario{
				FloodRatePPS: 6000, Duration: 500 * time.Millisecond,
			}, opt)
			p.Outcome = simulated(p.Outcome)
			return p, inst, err
		}, func(p any) bool { s := p.(StatefloodPoint); return s.FloodSent > 0 && s.SessionSent > 0 }},
	}
	pillars := []struct {
		name string
		opt  ObserveOptions
	}{
		{"metrics-only", ObserveOptions{}},
		{"trace", ObserveOptions{Trace: tracing.Options{SampleEvery: 8}}},
		{"profile", ObserveOptions{Profile: &profile.Options{KernelSampleEvery: 4}}},
		{"capture", ObserveOptions{Capture: true}},
		{"all", ObserveOptions{
			SampleEvery: 10 * time.Millisecond,
			Trace:       tracing.Options{SampleEvery: 8},
			Profile:     &profile.Options{KernelSampleEvery: 4},
			Capture:     true,
		}},
	}
	for _, fam := range families {
		plain, _, err := fam.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !fam.ran(plain) {
			t.Fatalf("%s: the plain run did not exercise the scenario: %+v", fam.name, plain)
		}
		for _, pl := range pillars {
			t.Run(fam.name+"/"+pl.name, func(t *testing.T) {
				opt := pl.opt
				got, inst, err := fam.run(&opt)
				if err != nil {
					t.Fatal(err)
				}
				if (inst.Tracer != nil) != (pl.opt.Trace.SampleEvery > 0) ||
					(inst.Profiling != nil) != (pl.opt.Profile != nil) ||
					(inst.Capture != nil) != pl.opt.Capture {
					t.Fatalf("attached pillars do not match %+v", pl.opt)
				}
				if !reflect.DeepEqual(got, plain) {
					t.Errorf("observation changed the point:\nplain:    %+v\nobserved: %+v", plain, got)
				}
			})
		}
	}
}

// TestRuleAttributionPopulated: every filtered run ships its own
// per-rule breakdown with hits on the action rule and monotonically
// increasing predicted walk latency.
func TestRuleAttributionPopulated(t *testing.T) {
	p, err := RunBandwidth(Scenario{
		Device:   DeviceEFW,
		Depth:    64,
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Attribution
	if a == nil {
		t.Fatal("no attribution on a filtered run")
	}
	if len(a.Rules) != 64 {
		t.Fatalf("attribution has %d rules, want 64", len(a.Rules))
	}
	if a.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
	var hits uint64
	for i, r := range a.Rules {
		hits += r.Hits
		if r.Index != i+1 {
			t.Fatalf("rule %d has index %d", i, r.Index)
		}
		if i > 0 && r.Latency <= a.Rules[i-1].Latency {
			t.Fatalf("predicted latency not increasing at rule %d", r.Index)
		}
	}
	if hits+a.DefaultHits != a.Evals {
		t.Fatalf("hits %d + default %d != evals %d", hits, a.DefaultHits, a.Evals)
	}
	if hits == 0 {
		t.Fatal("no rule hits recorded for iperf traffic")
	}
}
