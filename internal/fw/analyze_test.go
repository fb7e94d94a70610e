package fw

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"barbican/internal/packet"
)

func TestAnalyzeDetectsShadowing(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Action: Deny, Direction: In, Src: packet.MustPrefix("10.0.0.0/8")},
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP,
			Src: packet.MustPrefix("10.1.0.0/16"), DstPorts: Port(80)},
	)
	findings := rs.Analyze()
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	f := findings[0]
	if f.Kind != FindingShadowed || f.Rule != 2 || f.By != 1 {
		t.Errorf("finding = %+v", f)
	}
	if !strings.Contains(f.String(), "shadowed") {
		t.Errorf("String() = %q", f.String())
	}
}

func TestAnalyzeDetectsRedundancy(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Action: Allow, Direction: Both, Proto: packet.ProtoTCP, DstPorts: Ports(80, 90)},
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Port(85)},
	)
	findings := rs.Analyze()
	if len(findings) != 1 || findings[0].Kind != FindingRedundant {
		t.Fatalf("findings = %v", findings)
	}
}

func TestAnalyzeCleanPolicy(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Port(80)},
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Port(443)},
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoUDP, DstPorts: Port(53)},
		Rule{Action: Deny, Direction: In, Proto: packet.ProtoICMP},
	)
	if findings := rs.Analyze(); len(findings) != 0 {
		t.Errorf("clean policy produced findings: %v", findings)
	}
}

func TestAnalyzeCoverageSubtleties(t *testing.T) {
	tests := []struct {
		name  string
		first Rule
		later Rule
		want  int // findings
	}{
		{
			name:  "ported rule does not cover portless",
			first: Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Ports(1, 65535)},
			later: Rule{Action: Deny, Direction: In, Proto: packet.ProtoTCP},
			want:  0, // the later rule also matches packets without ports? No — TCP always has ports, but our model keys on the range being any
		},
		{
			name:  "narrower direction does not cover Both",
			first: Rule{Action: Allow, Direction: In},
			later: Rule{Action: Deny, Direction: Both, Proto: packet.ProtoTCP},
			want:  0,
		},
		{
			name:  "wildcard proto covers specific",
			first: Rule{Action: Deny, Direction: Both},
			later: Rule{Action: Allow, Direction: In, Proto: packet.ProtoUDP},
			want:  1,
		},
		{
			name:  "specific proto does not cover wildcard",
			first: Rule{Action: Deny, Direction: Both, Proto: packet.ProtoTCP},
			later: Rule{Action: Allow, Direction: In},
			want:  0,
		},
		{
			name:  "plain rule does not cover VPG rule",
			first: Rule{Action: Allow, Direction: In},
			later: Rule{Action: Allow, Direction: In, VPG: "g"},
			want:  0,
		},
		{
			name:  "broader VPG rule covers narrower",
			first: Rule{Action: Allow, Direction: In, VPG: "a", Src: packet.MustPrefix("10.0.0.0/8")},
			later: Rule{Action: Allow, Direction: In, VPG: "b", Src: packet.MustPrefix("10.1.0.0/16")},
			want:  1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rs := MustRuleSet(Deny, tt.first, tt.later)
			if got := rs.Analyze(); len(got) != tt.want {
				t.Errorf("findings = %v, want %d", got, tt.want)
			}
		})
	}
}

// Property: if Analyze flags rule i as covered by rule j, then no packet
// decided by the rule set is ever decided by rule i (soundness of the
// shadowing analysis against random traffic).
func TestAnalyzeSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ruleGen := func(r *rand.Rand) Rule {
		protos := []packet.Protocol{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
		rule := Rule{
			Action:    []Action{Allow, Deny}[r.Intn(2)],
			Direction: []Direction{In, Out, Both}[r.Intn(3)],
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
			rule.DstPorts = Ports(lo, lo+uint16(r.Intn(100)))
		}
		return rule
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		rules := make([]Rule, 0, n)
		for i := 0; i < n; i++ {
			rules = append(rules, ruleGen(r))
		}
		rs := MustRuleSet(Deny, rules...)
		flagged := make(map[int]bool)
		for _, fd := range rs.Analyze() {
			flagged[fd.Rule] = true
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
			dir := []Direction{In, Out}[r.Intn(2)]
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
