package tracing

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"barbican/internal/sim"
)

func TestCounterSamplingIsDeterministic(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Options{SampleEvery: 4})
	var hits []int
	for i := 1; i <= 12; i++ {
		if tr.Take() {
			hits = append(hits, i)
		}
	}
	want := []int{4, 8, 12}
	if len(hits) != len(want) {
		t.Fatalf("sampled %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("sampled %v, want %v", hits, want)
		}
	}
	if tr.Seen() != 12 || tr.Sampled() != 3 {
		t.Fatalf("seen=%d sampled=%d, want 12/3", tr.Seen(), tr.Sampled())
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := New(sim.NewKernel(), Options{})
	if tr.SampleEvery() != DefaultSampleEvery {
		t.Fatalf("SampleEvery = %d, want %d", tr.SampleEvery(), DefaultSampleEvery)
	}
}

func TestTraceLifecycleAndEviction(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Options{SampleEvery: 1})

	id1 := tr.Begin("udp a > b")
	tr.Span(id1, StageNICTx, 0, 10*time.Microsecond)
	tr.RuleWalk(id1, 3, 3, "allow")
	tr.Finish(id1, StageApp, "udp delivered :7")

	id2 := tr.Begin("tcp a > b")
	tr.Drop(id2, StageNICRx, DropCPUExhausted)

	// Fill to Limit+1 traces: the last Begin evicts id1.
	var last uint64
	for i := 2; i <= Limit; i++ {
		last = tr.Begin("icmp a > b")
	}
	if tr.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", tr.Evicted())
	}
	if got := len(tr.Traces()); got != Limit {
		t.Fatalf("retained %d traces, want %d", got, Limit)
	}
	if first, newest := tr.Traces()[0].ID, tr.Traces()[Limit-1].ID; first != id2 || newest != last {
		t.Fatalf("retained IDs %d..%d, want %d..%d", first, newest, id2, last)
	}
	// Events against the evicted ID are ignored, not resurrected.
	tr.Span(id1, StageLink, 0, time.Microsecond)
	if got := len(tr.Traces()); got != Limit {
		t.Fatalf("evicted trace resurrected: %d retained", got)
	}

	pt2 := tr.Traces()[0]
	if !pt2.Done || pt2.Dropped != DropCPUExhausted || pt2.Final != "drop cpu-exhausted" {
		t.Fatalf("drop disposition wrong: %+v", pt2)
	}
	// Terminal events are latched: a second terminal is ignored.
	tr.Finish(id2, StageApp, "late delivery")
	if pt2.Dropped != DropCPUExhausted {
		t.Fatalf("terminal disposition overwritten: %+v", pt2)
	}
}

func TestRuleWalkAttribution(t *testing.T) {
	tr := New(sim.NewKernel(), Options{SampleEvery: 1})
	id := tr.Begin("udp flood")
	tr.RuleWalk(id, 0, 64, "deny")
	pt := tr.Traces()[0]
	if pt.RuleIndex != 0 || pt.Traversed != 64 {
		t.Fatalf("attribution = rule %d traversed %d, want 0/64", pt.RuleIndex, pt.Traversed)
	}
	sp := pt.Spans[0]
	if sp.Stage != StageFW || sp.Note != "deny" || sp.Traversed != 64 {
		t.Fatalf("fw span wrong: %+v", sp)
	}
}

func TestZeroIDIsIgnored(t *testing.T) {
	tr := New(sim.NewKernel(), Options{SampleEvery: 1})
	tr.Span(0, StageLink, 0, time.Microsecond)
	tr.Point(0, StageStack, "x")
	tr.RuleWalk(0, 1, 1, "allow")
	tr.Drop(0, StageNICRx, DropRuleDeny)
	tr.Finish(0, StageApp, "x")
	if len(tr.Traces()) != 0 {
		t.Fatalf("zero-ID events created traces: %d", len(tr.Traces()))
	}
}

func TestDropReasonNamesComplete(t *testing.T) {
	for _, r := range DropReasons() {
		if s := r.String(); s == "drop?" || s == "none" {
			t.Fatalf("reason %d has bad name %q", r, s)
		}
	}
	if n := len(DropReasons()); n != int(NumDropReasons)-1 {
		t.Fatalf("DropReasons() has %d entries, want %d", n, NumDropReasons-1)
	}
}

func TestWritePerfettoLoadsAsTraceEventJSON(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Options{SampleEvery: 1})
	id := tr.Begin("udp 10.0.0.66:4444 > 10.0.0.2:7")
	tr.Span(id, StageNICTx, 100*time.Microsecond, 130*time.Microsecond)
	tr.RuleWalk(id, 64, 64, "deny")
	tr.Drop(id, StageNICRx, DropRuleDeny)

	var buf bytes.Buffer
	err := tr.WritePerfetto(&buf, ExportOptions{
		Drops: map[string]uint64{"rule-deny": 9, "cpu-exhausted": 1},
		Counters: []CounterTrack{{
			Name:   "drops rule-deny (pps)",
			Points: []CounterPoint{{At: time.Second, Value: 9}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events in output (got %v)", ph, phases)
		}
	}
	if doc.OtherData["drops_total"] != "10" {
		t.Fatalf("drops_total = %q, want 10", doc.OtherData["drops_total"])
	}
	if doc.OtherData["drop_rule-deny"] != "9" {
		t.Fatalf("drop_rule-deny = %q, want 9", doc.OtherData["drop_rule-deny"])
	}

	// The per-packet fields: the packet's thread carries its
	// disposition, the card span its duration, the fw event its
	// attribution, and the drop event its reason.
	byName := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		byName[name] = ev
	}
	thread, _ := byName["thread_name"]["args"].(map[string]any)
	if thread["name"] != "pkt 1 udp 10.0.0.66:4444 > 10.0.0.2:7 [drop rule-deny]" {
		t.Errorf("thread_name args = %v", thread)
	}
	if tx := byName["nic.tx"]; tx["ph"] != "X" || tx["ts"] != 100.0 || tx["dur"] != 30.0 {
		t.Errorf("nic.tx slice = %v, want ph X, ts 100, dur 30 (µs)", tx)
	}
	fw := byName["fw"]
	if args, _ := fw["args"].(map[string]any); fw["ph"] != "i" || args["rule"] != 64.0 || args["traversed"] != 64.0 || args["note"] != "deny" {
		t.Errorf("fw event = %v, want instant with rule 64, traversed 64, note deny", fw)
	}
	drop := byName["drop rule-deny"]
	if args, _ := drop["args"].(map[string]any); args["reason"] != "rule-deny" {
		t.Errorf("drop event = %v, want reason rule-deny", drop)
	}
}
