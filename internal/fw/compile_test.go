package fw

import (
	"math/rand"
	"sync"
	"testing"

	"barbican/internal/packet"
)

// randomRule draws one valid rule from a space designed to exercise
// every compiled dimension: all directions, wildcard and specific
// protocols, overlapping prefixes of assorted lengths (including
// non-octet boundaries), port ranges on either or both sides, and VPG
// rules mixed among plain ones.
func randomRule(r *rand.Rand) Rule {
	if r.Intn(6) == 0 {
		// VPG rule: allow-only, portless, proto-wildcard by validation.
		rule := Rule{
			Action:    Allow,
			Direction: []Direction{In, Out, Both}[r.Intn(3)],
			VPG:       []string{"eng", "oracle"}[r.Intn(2)],
		}
		if r.Intn(2) == 0 {
			rule.Src = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), 0}, Bits: 1 + r.Intn(32)}
		}
		if r.Intn(2) == 0 {
			rule.Dst = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), 0}, Bits: 1 + r.Intn(32)}
		}
		return rule
	}
	protos := []packet.Protocol{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
	rule := Rule{
		Action:    []Action{Allow, Deny}[r.Intn(2)],
		Direction: []Direction{In, Out, Both}[r.Intn(3)],
		Proto:     protos[r.Intn(len(protos))],
	}
	if r.Intn(3) > 0 {
		rule.Src = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(8))}, Bits: 1 + r.Intn(32)}
	}
	if r.Intn(3) > 0 {
		rule.Dst = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(8))}, Bits: 1 + r.Intn(32)}
	}
	if rule.Proto == packet.ProtoTCP || rule.Proto == packet.ProtoUDP {
		if r.Intn(2) == 0 {
			lo := uint16(r.Intn(120))
			rule.DstPorts = Ports(lo, lo+uint16(r.Intn(40)))
		}
		if r.Intn(3) == 0 {
			lo := uint16(r.Intn(120))
			rule.SrcPorts = Ports(lo, lo+uint16(r.Intn(40)))
		}
	}
	return rule
}

// randomSummary draws a packet summary from the same narrow space so
// matches at every depth actually happen.
func randomSummary(r *rand.Rand) packet.Summary {
	protos := []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
	proto := protos[r.Intn(len(protos))]
	s := packet.Summary{
		Proto:    proto,
		Src:      packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(8))},
		Dst:      packet.IP{10, byte(r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(8))},
		HasPorts: proto != packet.ProtoICMP,
		IPLen:    40 + r.Intn(1400),
	}
	if s.HasPorts {
		s.SrcPort = uint16(r.Intn(180))
		s.DstPort = uint16(r.Intn(180))
	}
	if r.Intn(4) == 0 {
		s.Sealed = true
	}
	return s
}

// TestCompiledDifferentialProperty is the seeded differential test the
// compiled matcher's correctness rests on: across random rule sets and
// random packets, in both directions, Compile(rs).EvalState must agree with
// the linear reference walk on every Verdict field — including the
// *Rule pointer — and apply identical counter updates. A replayed
// verdict recorded via RuleSet.Record (the flow-cache hit path) must
// keep the counters in lockstep too.
func TestCompiledDifferentialProperty(t *testing.T) {
	const (
		ruleSets         = 80
		packetsPerSet    = 120
		defaultCycle     = 2 // alternate default action across rule sets
		expectedPairsMin = 10_000
	)
	rng := rand.New(rand.NewSource(7))
	pairs := 0
	for rsIdx := 0; rsIdx < ruleSets; rsIdx++ {
		n := rng.Intn(130) // includes the empty rule set
		rules := make([]Rule, 0, n)
		for i := 0; i < n; i++ {
			rules = append(rules, randomRule(rng))
		}
		def := []Action{Allow, Deny}[rsIdx%defaultCycle]
		rs := MustRuleSet(def, rules...)
		ref := MustRuleSet(def, rules...) // independent counters for parity check
		c := Compile(rs)

		for k := 0; k < packetsPerSet; k++ {
			s := randomSummary(rng)
			for _, dir := range []Direction{In, Out} {
				want := rs.Eval(s, dir)
				got := c.EvalState(s, dir, StateNone)
				if got != want {
					t.Fatalf("rule set %d: compiled verdict %+v != linear %+v\npacket %v %v\nrules:\n%s",
						rsIdx, got, want, s, dir, rs)
				}
				// The cached path replays the verdict through Record.
				ref.Eval(s, dir)
				ref.Record(want)
				pairs++
			}
		}

		// rs saw every packet twice (linear + compiled); ref saw every
		// packet twice (linear + recorded replay). Identical counters
		// prove the compiled walk and the replay path update hit
		// accounting exactly like the reference walk.
		ev1, per1, def1 := rs.Stats()
		ev2, per2, def2 := ref.Stats()
		if ev1 != ev2 || def1 != def2 {
			t.Fatalf("rule set %d: counter mismatch: evals %d/%d defaultHits %d/%d", rsIdx, ev1, ev2, def1, def2)
		}
		for i := range per1 {
			if per1[i] != per2[i] {
				t.Fatalf("rule set %d: rule %d hit count %d (compiled) != %d (recorded)", rsIdx, i+1, per1[i], per2[i])
			}
		}
	}
	if pairs < expectedPairsMin {
		t.Fatalf("only %d differential pairs exercised, want >= %d", pairs, expectedPairsMin)
	}
}

// TestCompiledAdversarialCases pins the compiled matcher against the
// constructed shapes most likely to expose a decomposition bug:
// shadowed rules (first-match order), overlapping prefixes, VPG/plain
// interleaving with sealed traffic, the empty rule set,
// default-action fall-through, and exact interval boundaries.
func TestCompiledAdversarialCases(t *testing.T) {
	vpgIn := Rule{Name: "g-in", Action: Allow, Direction: In, VPG: "g",
		Src: packet.MustPrefix("10.1.0.0/16")}
	vpgOut := Rule{Name: "g-out", Action: Allow, Direction: Out, VPG: "g",
		Dst: packet.MustPrefix("10.1.0.0/16")}
	cases := []struct {
		name  string
		def   Action
		rules []Rule
	}{
		{name: "empty", def: Deny},
		{name: "empty-allow", def: Allow},
		{
			name: "shadowed",
			def:  Deny,
			rules: []Rule{
				{Name: "broad", Action: Allow, Direction: Both, Src: packet.MustPrefix("10.0.0.0/8")},
				{Name: "shadowed", Action: Deny, Direction: Both, Src: packet.MustPrefix("10.0.1.0/24")},
			},
		},
		{
			name: "overlapping-prefixes",
			def:  Allow,
			rules: []Rule{
				{Action: Deny, Direction: Both, Src: packet.MustPrefix("10.0.0.0/9")},
				{Action: Allow, Direction: Both, Src: packet.MustPrefix("10.0.0.0/10")},
				{Action: Deny, Direction: Both, Src: packet.MustPrefix("10.64.0.0/10")},
				{Action: Allow, Direction: In, Dst: packet.MustPrefix("10.0.0.128/25")},
			},
		},
		{
			name: "vpg-plain-mix",
			def:  Deny,
			rules: []Rule{
				{Name: "web", Action: Allow, Direction: In, Proto: packet.ProtoTCP,
					DstPorts: Port(80)},
				vpgIn, vpgOut,
				{Name: "tail", Action: Allow, Direction: Both},
			},
		},
		{
			name: "port-boundaries",
			def:  Deny,
			rules: []Rule{
				{Action: Allow, Direction: Both, Proto: packet.ProtoTCP, DstPorts: Ports(80, 90)},
				{Action: Deny, Direction: Both, Proto: packet.ProtoTCP, DstPorts: Ports(90, 100)},
				{Action: Allow, Direction: Both, Proto: packet.ProtoUDP, SrcPorts: Ports(0, 10)},
			},
		},
		{
			name: "default-fallthrough",
			def:  Allow,
			rules: []Rule{
				{Action: Deny, Direction: Both, Src: packet.MustPrefix("192.168.0.0/16")},
				{Action: Deny, Direction: Both, Proto: packet.ProtoICMP},
			},
		},
	}
	// Boundary-heavy probe set shared by all cases.
	var probes []packet.Summary
	for _, ip := range []packet.IP{
		{10, 0, 0, 0}, {10, 0, 0, 255}, {10, 0, 1, 0}, {10, 0, 1, 255},
		{10, 63, 255, 255}, {10, 64, 0, 0}, {10, 127, 255, 255}, {10, 128, 0, 0},
		{10, 0, 0, 127}, {10, 0, 0, 128}, {10, 1, 2, 3},
		{192, 168, 0, 1}, {192, 167, 255, 255}, {203, 0, 113, 1},
	} {
		for _, port := range []uint16{0, 10, 11, 79, 80, 90, 91, 100, 101, 65535} {
			probes = append(probes, packet.Summary{
				Proto: packet.ProtoTCP, Src: ip, Dst: packet.IP{10, 0, 1, 7},
				SrcPort: port, DstPort: port, HasPorts: true, IPLen: 40,
			})
			probes = append(probes, packet.Summary{
				Proto: packet.ProtoUDP, Src: packet.IP{10, 1, 2, 3}, Dst: ip,
				SrcPort: port, DstPort: port, HasPorts: true, IPLen: 40,
			})
		}
		probes = append(probes,
			packet.Summary{Proto: packet.ProtoICMP, Src: ip, Dst: packet.IP{10, 0, 0, 1}, IPLen: 84},
			packet.Summary{Proto: packet.ProtoVPGEncap, Src: ip, Dst: packet.IP{10, 1, 0, 9}, Sealed: true, IPLen: 120},
			packet.Summary{Proto: packet.ProtoTCP, Src: packet.IP{10, 1, 0, 9}, Dst: ip, SrcPort: 443, DstPort: 443, HasPorts: true, IPLen: 40, Sealed: true},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := MustRuleSet(tc.def, tc.rules...)
			c := Compile(rs)
			for _, s := range probes {
				for _, dir := range []Direction{In, Out} {
					want := rs.Eval(s, dir)
					got := c.EvalState(s, dir, StateNone)
					if got != want {
						t.Fatalf("compiled %+v != linear %+v for %v %v", got, want, s, dir)
					}
				}
			}
		})
	}
}

// TestCompiledBothDirectionFallback: the compiled class masks exist for
// In and Out only; any other direction value must take the reference
// walk (and still agree with it).
func TestCompiledBothDirectionFallback(t *testing.T) {
	rs := MustRuleSet(Deny, AllowAllRule())
	c := Compile(rs)
	s := packet.Summary{Proto: packet.ProtoTCP, Src: packet.IP{10, 0, 0, 1}, Dst: packet.IP{10, 0, 0, 2}, HasPorts: true, IPLen: 40}
	want := rs.Eval(s, Both)
	got := c.EvalState(s, Both, StateNone)
	if got != want {
		t.Fatalf("compiled %+v != linear %+v for dir=Both", got, want)
	}
}

// TestRulesConcurrent guards the satellite fix for the Rules() data
// race: the view is built in NewRuleSet, so concurrent metric-gather
// and render readers never write shared state. Run under -race.
func TestRulesConcurrent(t *testing.T) {
	rs := MustRuleSet(Deny,
		AllowAllRule(), NonMatchingRule(1), NonMatchingRule(2), Rule{Name: "deny-all", Action: Deny, Direction: Both})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				view := rs.Rules()
				if len(view) != 4 {
					t.Errorf("Rules() len = %d, want 4", len(view))
					return
				}
				_ = rs.MatchCount(1)
				_ = rs.DefaultHits()
			}
		}()
	}
	wg.Wait()
}

// TestCompiledAllocs gates compilation's allocations. A rule set
// compiles on its first Match, inside the simulated run, so every
// allocation here lands in the per-frame figures; the tables are carved
// from a fixed handful of backing slices at any depth.
func TestCompiledAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, depth := range []int{1, 64, 512} {
		rs, err := DepthRuleSet(Deny, depth, 0, AllowAllRule())
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { Compile(rs) }); allocs > maxAllocs {
			t.Errorf("depth %d: Compile makes %.0f allocations, want <= %d", depth, allocs, maxAllocs)
		}
	}
}

// TestCompiledMatchMemo: RuleSet.Match compiles on its first call and
// reuses that matcher afterwards — no allocation after the first
// packet — while agreeing with the reference walk on a twin rule set,
// counters included.
func TestCompiledMatchMemo(t *testing.T) {
	rs, err := DepthRuleSet(Deny, 64, 0, AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	ref := MustRuleSet(rs.Default(), rs.Rules()...)
	s := packet.Summary{Proto: packet.ProtoUDP, Src: packet.IP{10, 0, 0, 1}, Dst: packet.IP{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, HasPorts: true, IPLen: 128}
	if rs.compiled != nil {
		t.Fatal("rule set compiled before its first Match")
	}
	got, want := rs.Match(s, In, StateNone), ref.EvalState(s, In, StateNone)
	if got.Action != want.Action || got.Index != want.Index || got.Traversed != want.Traversed {
		t.Fatalf("Match %+v != EvalState %+v", got, want)
	}
	c := rs.compiled
	if c == nil {
		t.Fatal("first Match left no compiled matcher")
	}
	if allocs := testing.AllocsPerRun(100, func() { rs.Match(s, Out, StateNone) }); allocs != 0 {
		t.Errorf("Match after the first packet: %.0f allocations, want 0", allocs)
	}
	if rs.compiled != c {
		t.Error("Match recompiled an unchanged rule set")
	}
	for i := 0; i < 101; i++ {
		ref.EvalState(s, Out, StateNone)
	}
	ev1, per1, def1 := rs.Stats()
	ev2, per2, def2 := ref.Stats()
	if ev1 != ev2 || def1 != def2 || per1[63] != per2[63] {
		t.Fatalf("counters: Match evals %d default %d rule64 %d, walk %d %d %d", ev1, def1, per1[63], ev2, def2, per2[63])
	}
}
