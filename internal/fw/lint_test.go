package fw_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/packet"
)

// These cases pin the policy linter (sem.Lint) on the rule-set shapes
// the firewall package defines: prefix and port-range coverage, the
// direction and protocol wildcards, and the VPG/plain split. Each
// expectation is the exact answer over the whole packet space.

func pfx(s string) packet.Prefix { return packet.MustPrefix(s) }

// expectLint fails the test unless sem.Lint(rs, depthWarn) is want.
func expectLint(t *testing.T, rs *fw.RuleSet, depthWarn int, want []sem.Finding) []sem.Finding {
	t.Helper()
	got := sem.Lint(rs, depthWarn)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lint = %v, want %v\npolicy:\n%v", got, want, rs)
	}
	return got
}

func TestAnalyzeDetectsShadowing(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Deny, Direction: fw.In, Src: pfx("10.0.0.0/8")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP,
			Src: pfx("10.1.0.0/16"), DstPorts: fw.Port(80)},
	)
	f := expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingShadowed, Rule: 2, By: 1}})
	if !strings.Contains(f[0].String(), "shadowed") {
		t.Errorf("String() = %q", f[0].String())
	}
}

func TestAnalyzeDetectsRedundancy(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoTCP, DstPorts: fw.Ports(80, 90)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(85)},
	)
	expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingRedundant, Rule: 2, By: 1}})
}

func TestAnalyzeCleanPolicy(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(443)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, DstPorts: fw.Port(53)},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoICMP},
	)
	expectLint(t, rs, 0, nil)
}

func TestAnalyzeCoverageSubtleties(t *testing.T) {
	conflict := []sem.Finding{{Kind: sem.FindingConflict, Rule: 2, By: 1}}
	tests := []struct {
		name  string
		first fw.Rule
		later fw.Rule
		want  []sem.Finding
	}{
		{
			// The later rule also matches port 0 and portless TCP, and
			// it contains the earlier one: an exception, not a conflict.
			name:  "ported rule does not cover portless",
			first: fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(1, 65535)},
			later: fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP},
		},
		{
			// The later rule still fires outbound; inbound TCP goes to
			// the earlier rule, which the later one does not contain.
			name:  "narrower direction does not cover Both",
			first: fw.Rule{Action: fw.Allow, Direction: fw.In},
			later: fw.Rule{Action: fw.Deny, Direction: fw.Both, Proto: packet.ProtoTCP},
			want:  conflict,
		},
		{
			name:  "wildcard proto covers specific",
			first: fw.Rule{Action: fw.Deny, Direction: fw.Both},
			later: fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP},
			want:  []sem.Finding{{Kind: sem.FindingShadowed, Rule: 2, By: 1}},
		},
		{
			// Non-TCP inbound still reaches the later rule; inbound TCP
			// goes to the earlier rule, which the later one does not
			// contain (it is In only).
			name:  "specific proto does not cover wildcard",
			first: fw.Rule{Action: fw.Deny, Direction: fw.Both, Proto: packet.ProtoTCP},
			later: fw.Rule{Action: fw.Allow, Direction: fw.In},
			want:  conflict,
		},
		{
			// Inbound, a VPG rule matches sealed envelopes only, which
			// plain rules never match.
			name:  "plain rule does not cover VPG rule",
			first: fw.Rule{Action: fw.Allow, Direction: fw.In},
			later: fw.Rule{Action: fw.Allow, Direction: fw.In, VPG: "g"},
		},
		{
			name:  "broader VPG rule covers narrower",
			first: fw.Rule{Action: fw.Allow, Direction: fw.In, VPG: "a", Src: pfx("10.0.0.0/8")},
			later: fw.Rule{Action: fw.Allow, Direction: fw.In, VPG: "b", Src: pfx("10.1.0.0/16")},
			want:  []sem.Finding{{Kind: sem.FindingRedundant, Rule: 2, By: 1}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expectLint(t, fw.MustRuleSet(fw.Deny, tt.first, tt.later), 0, tt.want)
		})
	}
}

// Property: a rule Lint proves unreachable never decides a random
// packet.
func TestAnalyzeSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ruleGen := func(r *rand.Rand) fw.Rule {
		protos := []packet.Protocol{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
		rule := fw.Rule{
			Action:    []fw.Action{fw.Allow, fw.Deny}[r.Intn(2)],
			Direction: []fw.Direction{fw.In, fw.Out, fw.Both}[r.Intn(3)],
			Proto:     protos[r.Intn(len(protos))],
		}
		if r.Intn(2) == 0 {
			rule.Src = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(4)), 0, 0}, Bits: 8 * (1 + r.Intn(3))}
		}
		if r.Intn(2) == 0 {
			rule.Dst = packet.Prefix{Addr: packet.IP{10, byte(r.Intn(4)), 0, 0}, Bits: 8 * (1 + r.Intn(3))}
		}
		if (rule.Proto == packet.ProtoTCP || rule.Proto == packet.ProtoUDP) && r.Intn(2) == 0 {
			lo := uint16(r.Intn(100))
			rule.DstPorts = fw.Ports(lo, lo+uint16(r.Intn(100)))
		}
		return rule
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		rules := make([]fw.Rule, 0, n)
		for i := 0; i < n; i++ {
			rules = append(rules, ruleGen(r))
		}
		rs := fw.MustRuleSet(fw.Deny, rules...)
		flagged := make(map[int]bool)
		for _, fd := range sem.Lint(rs, 0) {
			if fd.Kind != sem.FindingConflict {
				flagged[fd.Rule] = true
			}
		}
		if len(flagged) == 0 {
			return true
		}
		// Hammer with random packets; flagged rules must never decide.
		for k := 0; k < 300; k++ {
			protos := []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
			proto := protos[r.Intn(len(protos))]
			s := packet.Summary{
				Proto:   proto,
				Src:     packet.IP{10, byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(4))},
				Dst:     packet.IP{10, byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(4))},
				SrcPort: uint16(r.Intn(200)), DstPort: uint16(r.Intn(200)),
				HasPorts: proto != packet.ProtoICMP,
			}
			dir := []fw.Direction{fw.In, fw.Out}[r.Intn(2)]
			if v := rs.Eval(s, dir); v.Index != 0 && flagged[v.Index] {
				t.Logf("flagged rule %d decided packet %v %v\nrules:\n%s", v.Index, s, dir, rs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLintConflictPartialPortOverlap(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(80, 100)},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(90, 120)},
	)
	f := expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingConflict, Rule: 2, By: 1}})
	if f[0].Kind.Severity() != sem.SeverityError {
		t.Errorf("conflict severity = %v, want error", f[0].Kind.Severity())
	}
}

func TestLintNestedOppositeActionsIsNotAConflict(t *testing.T) {
	// The classic exception-then-general pattern: a specific allow ahead
	// of a broad deny is intentional ordering, not a conflict.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP},
	)
	expectLint(t, rs, 0, nil)
}

func TestLintPrefixCoverAtSlashZero(t *testing.T) {
	// A zero-bits (match-anything) source covers any /32.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Deny, Direction: fw.In},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Src: pfx("1.2.3.4/32")},
	)
	expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingShadowed, Rule: 2, By: 1}})
}

func TestLintPrefixCoverAtSlash32(t *testing.T) {
	// Equal /32s: the later opposite-action twin is shadowed, not a
	// partial-overlap conflict.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Src: pfx("1.2.3.4/32")},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Src: pfx("1.2.3.4/32")},
	)
	expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingShadowed, Rule: 2, By: 1}})
}

func TestLintUnionRedundancyAcrossPrefixHalves(t *testing.T) {
	// Neither half covers the whole address space, but their union does.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Src: pfx("0.0.0.0/1")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Src: pfx("128.0.0.0/1")},
		fw.Rule{Action: fw.Allow, Direction: fw.In},
	)
	f := expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingRedundant, Rule: 3, Covering: []int{1, 2}}})
	if f[0].Kind.Severity() != sem.SeverityWarning {
		t.Errorf("redundant severity = %v, want warning", f[0].Kind.Severity())
	}
}

func TestLintUnionRedundancyAcrossPortRanges(t *testing.T) {
	// Ports 5-10 fall inside rule 1 alone, so rule 1 is the single
	// decisive cover.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(0, 1000)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(1001, 65535)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(5, 10)},
	)
	expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingRedundant, Rule: 3, By: 1}})
}

func TestLintUnreachableUnderMixedActions(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.0.0.0/9")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.128.0.0/9")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.0.0.0/8")},
	)
	f := expectLint(t, rs, 0, []sem.Finding{{Kind: sem.FindingUnreachable, Rule: 3, Covering: []int{1, 2}}})
	if !strings.Contains(f[0].String(), "union of rules 1, 2") {
		t.Errorf("String() = %q", f[0].String())
	}
}

func TestLintDepthWarnings(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(1)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(2)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(3)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(4)},
	)
	f := expectLint(t, rs, 2, []sem.Finding{
		{Kind: sem.FindingDepth, Rule: 3, Depth: 3},
		{Kind: sem.FindingDepth, Rule: 4, Depth: 4},
	})
	if f[0].Kind.Severity() != sem.SeverityInfo {
		t.Errorf("depth severity = %v, want info", f[0].Kind.Severity())
	}
}

func TestLintSkipsVPGVersusPlainPairs(t *testing.T) {
	// Rule 1 matches sealed envelopes inbound and cleartext outbound;
	// rule 2 matches inbound cleartext. No packet matches both, so
	// there is nothing to report.
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.Both, VPG: "eng", Src: pfx("10.0.0.0/8")},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Src: pfx("10.0.0.0/16")},
	)
	expectLint(t, rs, 0, nil)
}

// TestLintGoldenOrdering pins the rendered findings of a policy that
// triggers every cross-rule kind, in the order Lint emits them.
func TestLintGoldenOrdering(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(80, 100)},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Ports(90, 120)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(95)},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.0.0.0/9")},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.128.0.0/9")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoUDP, Src: pfx("10.0.0.0/8")},
	)
	want := []string{
		"rule 2 conflicts with rule 1 (partial overlap, opposite actions; rule 1 wins the overlap)",
		"rule 3 is redundant (covered by rule 1)",
		"rule 6 is unreachable (covered by the union of rules 4, 5)",
	}
	var got []string
	for _, f := range sem.Lint(rs, 0) {
		got = append(got, f.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestLintCleanPolicyHasNoFindings(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP, DstPorts: fw.Port(5001)},
		fw.Rule{Action: fw.Allow, Direction: fw.Out, Proto: packet.ProtoTCP, SrcPorts: fw.Port(5001)},
		fw.Rule{Action: fw.Deny, Direction: fw.In, Proto: packet.ProtoUDP},
	)
	expectLint(t, rs, 0, nil)
}
