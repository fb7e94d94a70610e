package nic

import (
	"math"
	"strings"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/profile"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// costData renders one card's cost account as host "target".
func costData(n *NIC) *profile.Data {
	d := profile.NewData(profile.CostSampleTypes, "cost")
	n.Processor().AppendCostSamples(d, "target")
	return d
}

// phaseUnits sums a rendered profile's units and packets by phase
// frame, both directions.
func phaseUnits(d *profile.Data) (units, packets map[string]int64) {
	units, packets = map[string]int64{}, map[string]int64{}
	for _, s := range d.Samples {
		units[s.Stack[2]] += s.Values[0]
		packets[s.Stack[2]] += s.Values[1]
	}
	return units, packets
}

// TestCardProfilerAttributionExact is the card's reconciliation check:
// the cost account renders the card's consumed units to named phases
// exactly — the profile's total equals Processor.UnitsDone up to
// rounding each sample.
func TestCardProfilerAttributionExact(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	const depth = 16
	rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	b.InstallRuleSet(rs)
	b.SetDeliver(func(f *packet.Frame) {})

	// Allowed UDP: the pad rules never match, so every packet walks
	// all depth rules to allow-all and pays depth × PerRuleCost; every
	// admitted packet must be attributed.
	for i := 0; i < 50; i++ {
		d := udpDatagram(ipA, ipB, 1000, 2000, 100)
		k.At(time.Duration(i)*time.Millisecond, func() { a.Send(d, macB) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	done := b.proc.UnitsDone()
	d := costData(b)
	if done == 0 {
		t.Fatal("target: no units consumed")
	}
	if got := float64(d.Total()); math.Abs(got-done) > 0.5*float64(len(d.Samples)) {
		t.Errorf("target: attributed %g units over %d samples, processor did %g", got, len(d.Samples), done)
	}
	// The client card is wire-speed (Standard, zero cost model):
	// packets are still counted but carry zero units, matching
	// UnitsDone = 0.
	client := profile.NewData(profile.CostSampleTypes, "cost")
	a.Processor().AppendCostSamples(client, "client")
	if _, packets := phaseUnits(client); packets["parse"] != 50 {
		t.Errorf("client parse packets = %d, want 50", packets["parse"])
	}
	if client.Total() != 0 || a.proc.UnitsDone() != 0 {
		t.Errorf("wire-speed client attributed %d units, processor %g; want 0", client.Total(), a.proc.UnitsDone())
	}

	// Target rx: every packet traversed exactly depth rules, so the
	// per-rule reconstruction must show each rule examined by all 50.
	ruleSamples := 0
	for _, s := range d.Samples {
		if len(s.Stack) == 4 && s.Stack[1] == "rx" && s.Stack[2] == "match" {
			ruleSamples++
			if s.Values[1] != 50 {
				t.Errorf("rule frame %q examined by %d packets, want 50", s.Stack[3], s.Values[1])
			}
		}
	}
	if ruleSamples != depth {
		t.Errorf("%d per-rule match samples, want %d", ruleSamples, depth)
	}
}

// TestCardProfilerMatchCostLinearInDepth reproduces the profile-level
// view of the paper's Fig. 2 mechanism: attributed match units grow
// linearly with rule-set depth on a walk-priced card (EFW) while base
// units stay flat, and a compiled card (NextGen) pays the same flat
// lookup at every depth.
func TestCardProfilerMatchCostLinearInDepth(t *testing.T) {
	units := func(p Profile, depth int) (match, base int64) {
		k := sim.NewKernel()
		a, b := pair(t, k, Standard(), p)
		rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
		if err != nil {
			t.Fatal(err)
		}
		b.InstallRuleSet(rs)
		b.SetDeliver(func(f *packet.Frame) {})
		for i := 0; i < 20; i++ {
			// A new flow per packet: every NextGen match is a cache miss.
			d := udpDatagram(ipA, ipB, uint16(1000+i), 2000, 64)
			k.At(time.Duration(i)*time.Millisecond, func() { a.Send(d, macB) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		u, _ := phaseUnits(costData(b))
		return u["match"], u["parse"]
	}

	m8, b8 := units(EFW(), 8)
	m32, b32 := units(EFW(), 32)
	if b8 != b32 {
		t.Errorf("base units moved with depth: %d vs %d", b8, b32)
	}
	if m8 == 0 || m32 != 4*m8 {
		t.Errorf("EFW match units not linear in depth: 8 rules → %d, 32 rules → %d (want ×4)", m8, m32)
	}
	n8, _ := units(NextGen(), 8)
	n32, _ := units(NextGen(), 32)
	if want := int64(20 * NextGen().CompiledLookupCost); n8 != want || n32 != want {
		t.Errorf("NextGen match units at 8 and 32 rules = %d, %d, want the flat %d", n8, n32, want)
	}
}

// TestProfilerDoesNotPerturbRun checks the observer effect: a run with
// the wall-domain kernel profiler attached produces identical card
// counters and cost units to one without.
func TestProfilerDoesNotPerturbRun(t *testing.T) {
	run := func(prof bool) (Stats, int64) {
		k := sim.NewKernel()
		a, b := pair(t, k, Standard(), EFW())
		rs, err := fw.DepthRuleSet(fw.Deny, 8, 0, fw.AllowAllRule())
		if err != nil {
			t.Fatal(err)
		}
		b.InstallRuleSet(rs)
		b.SetDeliver(func(f *packet.Frame) {})
		if prof {
			k.SetStepProfiler(profile.NewKernelProfiler(1))
		}
		for i := 0; i < 30; i++ {
			d := udpDatagram(ipA, ipB, 1000, 2000, 64)
			k.At(time.Duration(i)*time.Millisecond, func() { a.Send(d, macB) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return b.Stats(), costData(b).Total()
	}
	s0, u0 := run(false)
	s1, u1 := run(true)
	if s0 != s1 || u0 != u1 {
		t.Errorf("profiling changed the run: units %d vs %d, counters equal %v", u0, u1, s0 == s1)
	}
}

// TestDirProfileRecord checks how one direction of the cost account
// tallies each kind of admitted packet, and that recording allocates
// nothing.
func TestDirProfileRecord(t *testing.T) {
	p := NewProcessor(sim.NewKernel(), Profile{BaseCost: 1})
	p.Reserve(fw.MustRuleSet(fw.Deny, fw.AllowAllRule(), fw.AllowAllRule(), fw.AllowAllRule()))
	a := &p.rx
	a.record(MatchWalk, 3, 2, 1, 0, 0)     // matched rule 2 after 3 traversed, no crypto
	a.record(MatchWalk, 3, 0, 1, 0, 0)     // default action after the full walk
	a.record(MatchWalk, 1, 1, 1, 0, 2.5)   // matched rule 1, paid crypto
	a.record(MatchNone, 0, 0, 1, 0, 0)     // no policy: no match
	a.record(MatchCacheHit, 3, 3, 1, 2, 0) // cache hit with conntrack

	if a.packets != 5 || a.base != 5 {
		t.Fatalf("packets, base = %d, %g, want 5, 5", a.packets, a.base)
	}
	if a.cryptoPkts != 1 || a.crypto != 2.5 || a.ctPkts != 1 || a.ct != 2 || a.cacheHits != 1 {
		t.Fatalf("crypto (%d, %g), conntrack (%d, %g), cache hits %d; want (1, 2.5), (1, 2), 1",
			a.cryptoPkts, a.crypto, a.ctPkts, a.ct, a.cacheHits)
	}
	wantWalks, wantHits := []uint64{0, 1, 0, 2}, []uint64{2, 1, 1, 1}
	for i := range wantWalks {
		if a.walks[i] != wantWalks[i] || a.hits[i] != wantHits[i] {
			t.Errorf("walks[%d], hits[%d] = %d, %d, want %d, %d", i, i, a.walks[i], a.hits[i], wantWalks[i], wantHits[i])
		}
	}
	// A shallower rule set never shrinks what a deeper one recorded.
	p.Reserve(nil)
	if len(a.walks) != 4 || len(a.hits) != 4 || len(p.tx.walks) != 4 || a.walks[3] != 2 {
		t.Fatalf("Reserve(nil) after depth 3: walks %v, hits %v, tx walks %v", a.walks, a.hits, p.tx.walks)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.record(MatchWalk, 3, 3, 1, 1, 1) }); allocs != 0 {
		t.Errorf("record allocates %g times per packet", allocs)
	}
}

// TestCostSamplesAfterPolicyChange: once packets have walked a rule
// set that a later install replaced, rule index i covers two different
// rules, so no rule frame may carry the final set's text. The depth-64
// walks stay attributed by index.
func TestCostSamplesAfterPolicyChange(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	deep, err := fw.DepthRuleSet(fw.Deny, 64, 0, fw.AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	b.InstallRuleSet(deep)
	b.SetDeliver(func(f *packet.Frame) {})
	send := func(from time.Duration, n int) {
		for i := 0; i < n; i++ {
			d := udpDatagram(ipA, ipB, 1000, 2000, 64)
			k.At(from+time.Duration(i)*time.Millisecond, func() { a.Send(d, macB) })
		}
	}
	// 20 packets walk all 64 rules to allow-all; after the push, 5
	// more stop at the one-rule set's rule 1.
	send(0, 20)
	k.At(100*time.Millisecond, func() { b.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.AllowAllRule())) })
	send(200*time.Millisecond, 5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	examined := map[string]int64{}
	for _, s := range costData(b).Samples {
		if len(s.Stack) == 4 && s.Stack[1] == "rx" && s.Stack[2] == "match" {
			examined[s.Stack[3]] = s.Values[1]
		}
		if strings.Contains(s.Stack[len(s.Stack)-1], ": ") {
			t.Errorf("rule frame labelled from the final set after a policy change: %v", s.Stack)
		}
	}
	if examined["rule 001"] != 25 || examined["rule 064"] != 20 || len(examined) != 64 {
		t.Errorf("rx match frames: rule 001 ×%d, rule 064 ×%d, %d frames; want 25, 20, 64",
			examined["rule 001"], examined["rule 064"], len(examined))
	}
}

// TestAppendCostSamplesAttribution checks the rendering: rule i's match
// samples count every walk that examined at least i rules, compiled
// lookups, cache hits and conntrack get flat frames, rule frames carry
// the installed rule's text with ";" sanitized, and the units
// reconcile with UnitsDone.
func TestAppendCostSamplesAttribution(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny, fw.AllowAllRule(), fw.Rule{Action: fw.Allow, Direction: fw.In, Name: "web; tls"},
		fw.AllowAllRule(), fw.AllowAllRule())
	walk := NewProcessor(sim.NewKernel(), Profile{Name: "EFW", CapacityUnits: 1e9, BaseCost: 1, PerRuleCost: 0.5,
		CryptoPerPacket: 3, CacheHitCost: 1.5})
	walk.Reserve(rs)
	// 10 packets stop at rule 1, 5 walk to rule 3, 2 walk all 4 rules
	// to the default action; one sealed egress packet matches rule 2.
	for _, c := range []struct{ n, traversed, index int }{{10, 1, 1}, {5, 3, 3}, {2, 4, 0}} {
		for i := 0; i < c.n; i++ {
			walk.Charge(fw.In, MatchWalk, c.traversed, c.index, 0, 0)
		}
	}
	walk.Charge(fw.Out, MatchWalk, 2, 2, 1, 0)
	compiled := NewProcessor(sim.NewKernel(), Profile{Name: "NextGenFW", CapacityUnits: 1e9, BaseCost: 1, PerRuleCost: 0.5,
		CompiledMatch: true, CompiledLookupCost: 6, CacheHitCost: 1.5})
	compiled.Reserve(rs)
	for i := 0; i < 3; i++ {
		compiled.Charge(fw.Out, MatchWalk, 4, 4, 0, 2)
	}
	compiled.Charge(fw.Out, MatchCacheHit, 4, 4, 0, 6)

	d := profile.NewData(profile.CostSampleTypes, "cost")
	walk.AppendCostSamples(d, "target")
	compiled.AppendCostSamples(d, "target")
	find := func(stack ...string) []int64 {
		t.Helper()
		for _, s := range d.Samples {
			if strings.Join(s.Stack, "|") == strings.Join(stack, "|") {
				return s.Values
			}
		}
		t.Fatalf("no sample with stack %v in %d samples", stack, len(d.Samples))
		return nil
	}
	allow := "allow both from any to any # allow-all"
	efw, ng := "target (EFW)", "target (NextGenFW)"
	for _, c := range []struct {
		stack []string
		want  [2]int64
	}{
		{[]string{efw, "rx", "match", "rule 001: " + allow}, [2]int64{9, 17}}, // round(0.5 × 17)
		{[]string{efw, "rx", "match", "rule 002: allow in from any to any # web, tls"}, [2]int64{4, 7}},
		{[]string{efw, "rx", "match", "rule 003: " + allow}, [2]int64{4, 7}},
		{[]string{efw, "rx", "match", "rule 004: " + allow}, [2]int64{1, 2}},
		{[]string{efw, "rx", "verdict", "default"}, [2]int64{0, 2}},
		{[]string{efw, "tx", "crypto.seal"}, [2]int64{3, 1}},
		{[]string{ng, "tx", "match", "compiled lookup"}, [2]int64{18, 3}},
		{[]string{ng, "tx", "match", "cache hit"}, [2]int64{2, 1}},
		{[]string{ng, "tx", "conntrack"}, [2]int64{12, 4}},
	} {
		if got := find(c.stack...); got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("%v = %v, want %v", c.stack, got, c.want)
		}
	}
	units := walk.UnitsDone() + compiled.UnitsDone()
	if diff := math.Abs(float64(d.Total()) - units); diff > 0.5*float64(len(d.Samples)) {
		t.Errorf("profile total %d vs processors' %g units: outside rounding slack", d.Total(), units)
	}
	for _, s := range d.Samples {
		if strings.Contains(strings.Join(s.Stack, ""), ";") {
			t.Errorf("frame contains reserved ';': %v", s.Stack)
		}
	}
}
