package sem

import (
	"math/rand"
	"reflect"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// TestExactLintBasics pins the finding vocabulary on hand-built sets.
func TestExactLintBasics(t *testing.T) {
	tcpIn := func(action fw.Action, states fw.StateMask) fw.Rule {
		return fw.Rule{Action: action, Direction: fw.In, Proto: packet.ProtoTCP, States: states}
	}
	web := func(action fw.Action, states fw.StateMask) fw.Rule {
		r := tcpIn(action, states)
		r.DstPorts = fw.Port(80)
		return r
	}
	cases := []struct {
		name      string
		def       fw.Action
		rs        []fw.Rule
		depthWarn int
		want      []Finding
	}{
		{
			name: "shadowed",
			def:  fw.Deny,
			rs: []fw.Rule{
				fw.AllowAllRule(),
				{Name: "late", Action: fw.Deny, Direction: fw.Both, Proto: packet.ProtoTCP},
			},
			want: []Finding{{Kind: FindingShadowed, Rule: 2, By: 1}},
		},
		{
			name: "conflict",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "block-src", Action: fw.Deny, Direction: fw.In, Src: pfx("10.0.0.0/24")},
				{Name: "open-dst", Action: fw.Allow, Direction: fw.In, Dst: pfx("10.9.9.9/32")},
			},
			want: []Finding{{Kind: FindingConflict, Rule: 2, By: 1}},
		},
		{
			name: "redundant-union",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "lo", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(0, 100)},
				{Name: "hi", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(101, 65535)},
				{Name: "mid", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(50, 200)},
			},
			want: []Finding{{Kind: FindingRedundant, Rule: 3, Covering: []int{1, 2}}},
		},
		{
			name: "unreachable-mixed-union",
			def:  fw.Deny,
			rs: []fw.Rule{
				{Name: "lo", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(0, 100)},
				{Name: "hi", Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(101, 65535)},
				{Name: "mid", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(50, 200)},
			},
			want: []Finding{{Kind: FindingUnreachable, Rule: 3, Covering: []int{1, 2}}},
		},
		{
			name:      "depth",
			def:       fw.Deny,
			rs:        []fw.Rule{fw.NonMatchingRule(1), fw.AllowAllRule()},
			depthWarn: 1,
			want:      []Finding{{Kind: FindingDepth, Rule: 2, Depth: 2}},
		},
		{
			// A stateless deny takes every inbound TCP packet under
			// every state, so neither stateful allow can ever fire.
			name: "stateful-shadowed",
			def:  fw.Allow,
			rs: []fw.Rule{
				tcpIn(fw.Deny, 0),
				web(fw.Allow, fw.MaskOf(fw.StateNew)),
				tcpIn(fw.Allow, fw.MaskOf(fw.StateEstablished)),
			},
			want: []Finding{
				{Kind: FindingShadowed, Rule: 2, By: 1},
				{Kind: FindingShadowed, Rule: 3, By: 1},
			},
		},
		{
			name: "stateless-before-established-redundant",
			def:  fw.Deny,
			rs: []fw.Rule{
				tcpIn(fw.Allow, 0),
				tcpIn(fw.Allow, fw.MaskOf(fw.StateEstablished)),
			},
			want: []Finding{{Kind: FindingRedundant, Rule: 2, By: 1}},
		},
		{
			// Disjoint state sets never compete for a packet.
			name: "disjoint-states",
			def:  fw.Deny,
			rs: []fw.Rule{
				tcpIn(fw.Deny, fw.MaskOf(fw.StateNew)),
				tcpIn(fw.Allow, fw.MaskOf(fw.StateEstablished)),
			},
		},
		{
			// Rule 1 decides rule 2's port-80 established packets, and
			// rule 2 does not contain rule 1 (it never sees state new).
			name: "state-partial-overlap-conflict",
			def:  fw.Deny,
			rs: []fw.Rule{
				web(fw.Deny, fw.MaskOf(fw.StateNew, fw.StateEstablished)),
				tcpIn(fw.Allow, fw.MaskOf(fw.StateEstablished)),
			},
			want: []Finding{{Kind: FindingConflict, Rule: 2, By: 1}},
		},
		{
			// A later stateless rule contains an earlier stateful
			// exception: intentional ordering, not a conflict.
			name: "state-exception-not-conflict",
			def:  fw.Allow,
			rs: []fw.Rule{
				web(fw.Allow, fw.MaskOf(fw.StateNew)),
				tcpIn(fw.Deny, 0),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := fw.MustRuleSet(tc.def, tc.rs...)
			got := Lint(rs, tc.depthWarn)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Lint = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestExactLintCrossClass: a plain allow-out wildcard swallows every
// cleartext packet a VPG outbound rule would seal, so the VPG rule is
// dead even though the two rules belong to different rule kinds.
func TestExactLintCrossClass(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "open-out", Action: fw.Allow, Direction: fw.Out},
		fw.Rule{Name: "seal", Action: fw.Allow, Direction: fw.Out, VPG: "g", Src: pfx("10.0.0.0/8")},
	)
	got := Lint(rs, 0)
	want := []Finding{{Kind: FindingRedundant, Rule: 2, By: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lint = %v, want %v", got, want)
	}
}

// TestExactLintPhantomConflict: rules 2 and 3 overlap with opposite
// actions, but a VPG outbound wildcard (rule 1) takes every packet
// first, so the order dependence is phantom. Lint instead proves
// rules 2 and 3 dead behind rule 1.
func TestExactLintPhantomConflict(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "seal-all", Action: fw.Allow, Direction: fw.Out, VPG: "g"},
		fw.Rule{Name: "open-src", Action: fw.Allow, Direction: fw.Out, Src: pfx("10.0.0.0/8")},
		fw.Rule{Name: "block-dst", Action: fw.Deny, Direction: fw.Out, Dst: pfx("10.9.9.9/32")},
	)
	got := Lint(rs, 0)
	want := []Finding{
		{Kind: FindingRedundant, Rule: 2, By: 1},
		{Kind: FindingShadowed, Rule: 3, By: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lint = %v, want %v", got, want)
	}
}

func unreachableRules(fs []Finding) map[int]bool {
	out := map[int]bool{}
	for _, f := range fs {
		switch f.Kind {
		case FindingShadowed, FindingRedundant, FindingUnreachable:
			out[f.Rule] = true
		}
	}
	return out
}

// withRandomStates returns rs with a random non-empty connection-state
// mask on about a third of its plain rules (VPG rules cannot carry
// state matchers).
func withRandomStates(r *rand.Rand, rs *fw.RuleSet) *fw.RuleSet {
	rules := append([]fw.Rule(nil), rs.Rules()...)
	for i := range rules {
		if rules[i].IsVPG() || r.Intn(3) != 0 {
			continue
		}
		// Bits 1..4: new, established, related, invalid.
		rules[i].States = fw.StateMask(1+r.Intn(15)) << 1
	}
	return fw.MustRuleSet(rs.Default(), rules...)
}

// TestDifferentialLint grounds the single walk in the reference walk:
// one witness per atomic region, replayed through RuleSet.EvalState
// under every connection state, must reach exactly the rules the walk
// calls reachable, and each rule's winners must be exactly the
// deciders of the witnesses it matches. The findings must then agree
// with the walk: a rule has an unreachable-class finding iff it is
// unreachable, naming its winners as the cover.
func TestDifferentialLint(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := Generate(r, GenOptions{Rules: 18})
		if seed%2 == 0 {
			rs = withRandomStates(r, rs)
		}
		witnesses, ok := RegionWitnesses(rs, 1_000_000)
		if !ok {
			t.Fatalf("seed %d: region budget exceeded", seed)
		}
		n := rs.Len()
		reached := make([]bool, n+1)
		winners := make([]map[int]bool, n+1)
		for i := range winners {
			winners[i] = map[int]bool{}
		}
		for _, wt := range witnesses {
			for cs := fw.StateNone; cs < fw.NumConnStates; cs++ {
				v := rs.EvalState(wt.Packet, wt.Dir, cs)
				reached[v.Index] = true
				for i := v.Index + 1; v.Index > 0 && i <= n; i++ {
					if rs.Rule(i).MatchesState(wt.Packet, wt.Dir, cs) {
						winners[i][v.Index] = true
					}
				}
			}
		}

		w := lintWalk(rs)
		unreach := map[int]Finding{}
		for _, f := range Lint(rs, 0) {
			if f.Kind != FindingConflict { // no depth notes at depthWarn 0
				unreach[f.Rule] = f
			}
		}
		for i := 1; i <= n; i++ {
			if got := hasBit(w.reached, i); got != reached[i] {
				t.Fatalf("seed %d: rule %d: walk reachable=%v, reference walk reachable=%v\npolicy:\n%v",
					seed, i, got, reached[i], rs)
			}
			var want []int
			for j := 1; j < i; j++ {
				if winners[i][j] {
					want = append(want, j)
				}
			}
			if got := w.winners(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: rule %d: walk winners %v, reference deciders %v\npolicy:\n%v",
					seed, i, got, want, rs)
			}
			f, isUnreach := unreach[i]
			if isUnreach == reached[i] {
				t.Fatalf("seed %d: rule %d: unreachable finding %v, reference reachable=%v", seed, i, isUnreach, reached[i])
			}
			if isUnreach {
				cover := f.Covering
				if cover == nil && f.By != 0 {
					cover = []int{f.By}
				}
				if !reflect.DeepEqual(cover, want) {
					t.Fatalf("seed %d: rule %d: finding %v, reference deciders %v", seed, i, f, want)
				}
			}
		}
	}
}

// TestExactReachabilityProbes: any rule observed deciding a real probe
// packet must be in the exact reachable set.
func TestExactReachabilityProbes(t *testing.T) {
	probes := rand.New(rand.NewSource(5))
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := Generate(r, GenOptions{Rules: 16})
		unreach := unreachableRules(Lint(rs, 0))
		for p := 0; p < 500; p++ {
			s, dir := genSummary(probes)
			v := rs.Eval(s, dir)
			if v.Index != 0 && unreach[v.Index] {
				t.Fatalf("seed %d: rule %d proven unreachable but decided probe %v %v\npolicy:\n%v",
					seed, v.Index, dir, s, rs)
			}
		}
	}
}
