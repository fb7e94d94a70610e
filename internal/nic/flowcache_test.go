package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

func depth64Allow(t *testing.T) *fw.RuleSet {
	t.Helper()
	rs, err := fw.DepthRuleSet(fw.Deny, 64, 0, fw.AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestFlowCacheBoundedEviction exercises the cache structure directly:
// capacity is a hard bound, displaced flows miss again, and the
// round-robin cursor evicts oldest-inserted first.
func TestFlowCacheBoundedEviction(t *testing.T) {
	c := newFlowCache(4)
	rs := depth64Allow(t)
	mk := func(last byte) packet.Summary {
		return packet.Summary{
			Proto: packet.ProtoUDP,
			Src:   packet.IP{10, 0, 0, last}, Dst: packet.IP{10, 0, 1, 1},
			SrcPort: 1000, DstPort: 2000, HasPorts: true, IPLen: 40,
		}
	}
	for i := byte(0); i < 6; i++ {
		s := mk(i)
		v := rs.Eval(s, fw.Out)
		c.insert(s, fw.Out, fw.StateNone, v)
	}
	st := c.stats()
	if st.Entries != 4 {
		t.Errorf("entries = %d, want the capacity bound 4", st.Entries)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	// The two oldest flows were displaced; the four newest remain.
	for i := byte(0); i < 2; i++ {
		if _, ok := c.lookup(mk(i), fw.Out, fw.StateNone); ok {
			t.Errorf("flow %d still cached after eviction", i)
		}
	}
	for i := byte(2); i < 6; i++ {
		v, ok := c.lookup(mk(i), fw.Out, fw.StateNone)
		if !ok {
			t.Fatalf("flow %d missing from cache", i)
		}
		if v.Index != 64 || v.Action != fw.Allow {
			t.Errorf("flow %d cached verdict = %+v", i, v)
		}
	}
	c.invalidate()
	if st := c.stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Errorf("after invalidate: %+v", st)
	}
	if _, ok := c.lookup(mk(3), fw.Out, fw.StateNone); ok {
		t.Error("lookup succeeded after invalidate")
	}
}

// TestFlowCacheInsertEvictAllocatesNothing: after newFlowCache,
// filling the cache and then inserting new flows — each evicting the
// slot under the cursor — allocates nothing. Each measured call churns
// a cache built before measuring, so the fill is measured too. The
// capacity is the stateful card's, where this churn grows a Go map.
func TestFlowCacheInsertEvictAllocatesNothing(t *testing.T) {
	const capacity, runs = 1024, 4
	var caches [runs + 1]*flowCache // AllocsPerRun calls once more to warm up
	for i := range caches {
		caches[i] = newFlowCache(capacity)
	}
	v := depth64Allow(t).Eval(benchSummary(1, 1), fw.In)
	calls := 0
	churn := func() {
		c := caches[calls]
		calls++
		for n := 1; n <= 8*capacity; n++ {
			c.insert(benchSummary(byte(n), uint16(n)), fw.In, fw.StateNew, v)
		}
		if st := c.stats(); st.Entries != capacity || st.Evictions != 7*capacity {
			t.Fatalf("after churn: %+v, want %d entries and %d evictions", st, capacity, 7*capacity)
		}
	}
	if a := testing.AllocsPerRun(runs, churn); a != 0 {
		t.Errorf("%v allocs per fill-and-churn, want 0", a)
	}
}

// TestFlowCacheKeySeparation: flows differing in any verdict-relevant
// attribute — ports, direction, sealing — must not share a cache entry.
func TestFlowCacheKeySeparation(t *testing.T) {
	c := newFlowCache(16)
	base := packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.IP{10, 0, 0, 1}, Dst: packet.IP{10, 0, 0, 2},
		SrcPort: 1, DstPort: 80, HasPorts: true, IPLen: 40,
	}
	c.insert(base, fw.In, fw.StateNone, fw.Verdict{Action: fw.Allow, Index: 1, Traversed: 1})

	variants := []packet.Summary{base, base, base}
	variants[0].DstPort = 81
	variants[1].Sealed = true
	variants[2].HasPorts = false
	for i, s := range variants {
		if _, ok := c.lookup(s, fw.In, fw.StateNone); ok {
			t.Errorf("variant %d shared the base flow's entry", i)
		}
	}
	if _, ok := c.lookup(base, fw.Out, fw.StateNone); ok {
		t.Error("opposite direction shared the base flow's entry")
	}
	if v, ok := c.lookup(base, fw.In, fw.StateNone); !ok || v.Index != 1 {
		t.Errorf("base flow lookup = %+v, %v", v, ok)
	}
	// Length and flags changes do NOT change the flow identity: the
	// verdict doesn't depend on them, so they must hit.
	longer := base
	longer.IPLen = 1400
	if _, ok := c.lookup(longer, fw.In, fw.StateNone); !ok {
		t.Error("length-only variant missed; it should share the flow entry")
	}
}

// TestFlowCacheHitReplaysVerdictAndCounters: on a NextGen card a
// repeated flow is served from the cache (hit counted) while the rule
// set's hit accounting advances exactly as if every packet walked.
func TestFlowCacheHitReplaysVerdictAndCounters(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, NextGen(), Standard())
	_ = b
	rs := depth64Allow(t)
	a.InstallRuleSet(rs)

	for i := 0; i < 5; i++ {
		if !a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB) {
			t.Fatalf("send %d refused", i)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := a.FlowCacheStats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("cache stats = %+v, want 1 miss + 4 hits", st)
	}
	if got := rs.EvalCount(); got != 5 {
		t.Errorf("rule-set evals = %d, want 5 (cache hits must keep counters exact)", got)
	}
	if got := rs.MatchCount(64); got != 5 {
		t.Errorf("action-rule hits = %d, want 5", got)
	}
}

// TestFlowCacheInvalidatedOnPolicyCommit: a verdict cached under the
// old policy must never survive a commit — the freshly committed
// deny-all must take effect on the very next packet.
func TestFlowCacheInvalidatedOnPolicyCommit(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(t, k, NextGen(), Standard())
	a.InstallRuleSet(depth64Allow(t))
	invalAfterInstall := a.FlowCacheStats().Invalidations

	d := udpDatagram(ipA, ipB, 1000, 2000, 100)
	if !a.Send(d, macB) || !a.Send(d, macB) {
		t.Fatal("warm-up sends refused")
	}
	if st := a.FlowCacheStats(); st.Hits != 1 {
		t.Fatalf("cache not warm before commit: %+v", st)
	}

	a.InstallRuleSet(fw.MustRuleSet(fw.Deny, fw.Rule{Name: "deny-all", Action: fw.Deny, Direction: fw.Both}))
	if st := a.FlowCacheStats(); st.Invalidations != invalAfterInstall+1 {
		t.Fatalf("commit did not invalidate: %+v", st)
	}
	if a.Send(d, macB) {
		t.Fatal("send allowed after deny-all commit — stale cached verdict served")
	}
	if st := a.Stats(); st.TxDrops[tracing.DropRuleDeny] != 1 {
		t.Errorf("tx rule-deny drops = %d, want 1", st.TxDrops[tracing.DropRuleDeny])
	}
	if st := a.FlowCacheStats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (post-commit packet must re-evaluate)", st.Misses)
	}
}

// TestFlowCacheInvalidatedOnDegradedTransitions: entering a degraded
// episode and the watchdog recovery back to enforcement each
// invalidate the cache.
func TestFlowCacheInvalidatedOnDegradedTransitions(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(t, k, NextGen(), Standard())
	a.InstallRuleSet(depth64Allow(t))

	d := udpDatagram(ipA, ipB, 1000, 2000, 100)
	if !a.Send(d, macB) || !a.Send(d, macB) {
		t.Fatal("warm-up sends refused")
	}
	before := a.FlowCacheStats()
	if before.Hits != 1 || before.Entries != 1 {
		t.Fatalf("cache not warm: %+v", before)
	}

	a.Degrade(FailModeClosed, RecoveryResync)
	if got := a.DegradedState(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	afterAbort := a.FlowCacheStats()
	if afterAbort.Invalidations != before.Invalidations+1 {
		t.Errorf("degraded entry: invalidations = %d, want %d", afterAbort.Invalidations, before.Invalidations+1)
	}
	if afterAbort.Entries != 0 {
		t.Errorf("degraded entry left %d cached verdicts", afterAbort.Entries)
	}

	// Let the watchdog end the episode.
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := a.DegradedState(); got != StateHealthy {
		t.Fatalf("state after watchdog = %v, want healthy", got)
	}
	afterRecover := a.FlowCacheStats()
	if afterRecover.Invalidations != afterAbort.Invalidations+1 {
		t.Errorf("watchdog reset: invalidations = %d, want %d", afterRecover.Invalidations, afterAbort.Invalidations+1)
	}
	// Back to healthy: the next packet of the flow is a fresh miss.
	if !a.Send(d, macB) {
		t.Fatal("send refused after recovery")
	}
	if st := a.FlowCacheStats(); st.Misses != afterRecover.Misses+1 {
		t.Errorf("post-recovery packet was not a miss: %+v", st)
	}
}

// TestNextGenEgressParityWithEFW: the compiled + cached card must reach
// the same verdicts and rule accounting as the linear EFW on identical
// traffic — only the cost differs.
func TestNextGenEgressParityWithEFW(t *testing.T) {
	run := func(prof Profile) (Stats, *fw.RuleSet) {
		k := sim.NewKernel()
		a, _ := pair(t, k, prof, Standard())
		rs := depth64Allow(t)
		a.InstallRuleSet(rs)
		flows := []struct {
			dport   uint16
			payload int
		}{{2000, 100}, {2000, 100}, {53, 40}, {2000, 1400}, {53, 40}}
		for _, f := range flows {
			a.Send(udpDatagram(ipA, ipB, 1000, f.dport, f.payload), macB)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return a.Stats(), rs
	}
	efwStats, efwRS := run(EFW())
	ngStats, ngRS := run(NextGen())
	if efwStats.TxAllowed != ngStats.TxAllowed || efwStats.TxDrops[tracing.DropRuleDeny] != ngStats.TxDrops[tracing.DropRuleDeny] {
		t.Errorf("verdict divergence: EFW tx=%d/%d, NextGen tx=%d/%d",
			efwStats.TxAllowed, efwStats.TxDrops[tracing.DropRuleDeny], ngStats.TxAllowed, ngStats.TxDrops[tracing.DropRuleDeny])
	}
	ev1, per1, def1 := efwRS.Stats()
	ev2, per2, def2 := ngRS.Stats()
	if ev1 != ev2 || def1 != def2 {
		t.Errorf("counter divergence: evals %d/%d defaultHits %d/%d", ev1, ev2, def1, def2)
	}
	for i := range per1 {
		if per1[i] != per2[i] {
			t.Errorf("rule %d hits: EFW %d, NextGen %d", i+1, per1[i], per2[i])
		}
	}
}
