package fw

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"barbican/internal/packet"
)

func tcpSummary(src, dst string, sport, dport uint16) packet.Summary {
	return packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.MustIP(src), Dst: packet.MustIP(dst),
		SrcPort: sport, DstPort: dport, HasPorts: true,
	}
}

func udpSummary(src, dst string, sport, dport uint16) packet.Summary {
	s := tcpSummary(src, dst, sport, dport)
	s.Proto = packet.ProtoUDP
	return s
}

func TestPortRange(t *testing.T) {
	tests := []struct {
		r    PortRange
		p    uint16
		want bool
	}{
		{r: AnyPort, p: 0, want: true},
		{r: AnyPort, p: 65535, want: true},
		{r: Port(80), p: 80, want: true},
		{r: Port(80), p: 81, want: false},
		{r: Ports(6000, 6063), p: 6000, want: true},
		{r: Ports(6000, 6063), p: 6063, want: true},
		{r: Ports(6000, 6063), p: 6064, want: false},
		{r: Ports(6000, 6063), p: 5999, want: false},
	}
	for _, tt := range tests {
		if got := tt.r.Contains(tt.p); got != tt.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", tt.r, tt.p, got, tt.want)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	web := Rule{
		Action: Allow, Direction: In, Proto: packet.ProtoTCP,
		Dst:      packet.MustPrefix("10.0.0.2/32"),
		DstPorts: Port(80),
	}
	tests := []struct {
		name string
		s    packet.Summary
		dir  Direction
		want bool
	}{
		{name: "http in matches", s: tcpSummary("10.0.0.1", "10.0.0.2", 4242, 80), dir: In, want: true},
		{name: "wrong dst port", s: tcpSummary("10.0.0.1", "10.0.0.2", 4242, 443), dir: In, want: false},
		{name: "wrong dst ip", s: tcpSummary("10.0.0.1", "10.0.0.3", 4242, 80), dir: In, want: false},
		{name: "wrong direction", s: tcpSummary("10.0.0.1", "10.0.0.2", 4242, 80), dir: Out, want: false},
		{name: "wrong proto", s: udpSummary("10.0.0.1", "10.0.0.2", 4242, 80), dir: In, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := web.Matches(tt.s, tt.dir); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRuleAnyFieldsMatchEverything(t *testing.T) {
	r := AllowAllRule()
	for _, s := range []packet.Summary{
		tcpSummary("1.2.3.4", "5.6.7.8", 1, 2),
		udpSummary("9.9.9.9", "10.0.0.1", 53, 53),
		{Proto: packet.ProtoICMP, Src: packet.MustIP("1.1.1.1"), Dst: packet.MustIP("2.2.2.2")},
	} {
		if !r.Matches(s, In) || !r.Matches(s, Out) {
			t.Errorf("allow-all did not match %v", s)
		}
	}
}

func TestRulePortMatchRequiresPorts(t *testing.T) {
	r := Rule{Action: Allow, Direction: Both, Proto: packet.ProtoTCP, DstPorts: Port(80)}
	icmp := packet.Summary{Proto: packet.ProtoTCP} // ports absent
	if r.Matches(icmp, In) {
		t.Error("port rule matched portless summary")
	}
}

func TestSealedTrafficOnlyMatchesVPGRules(t *testing.T) {
	sealed := packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.MustIP("10.0.0.1"), Dst: packet.MustIP("10.0.0.2"),
		Sealed: true,
	}
	plain := AllowAllRule()
	if plain.Matches(sealed, In) {
		t.Error("plain rule matched sealed traffic")
	}
	vpgIn := Rule{Action: Allow, Direction: In, VPG: "g"}
	if !vpgIn.Matches(sealed, In) {
		t.Error("VPG in-rule did not match sealed traffic")
	}
	clear := tcpSummary("10.0.0.1", "10.0.0.2", 1, 2)
	if vpgIn.Matches(clear, In) {
		t.Error("VPG in-rule matched cleartext inbound traffic")
	}
	vpgOut := Rule{Action: Allow, Direction: Out, VPG: "g"}
	if !vpgOut.Matches(clear, Out) {
		t.Error("VPG out-rule did not match cleartext outbound traffic")
	}
	sealedOut := sealed
	if vpgOut.Matches(sealedOut, Out) {
		t.Error("VPG out-rule matched already-sealed traffic")
	}
}

func TestRuleValidate(t *testing.T) {
	tests := []struct {
		name    string
		rule    Rule
		wantErr string
	}{
		{name: "valid", rule: AllowAllRule()},
		{name: "bad action", rule: Rule{Direction: In}, wantErr: "invalid action"},
		{name: "bad direction", rule: Rule{Action: Allow}, wantErr: "invalid direction"},
		{
			name:    "inverted ports",
			rule:    Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Ports(90, 80)},
			wantErr: "inverted",
		},
		{
			name:    "ports without tcp/udp",
			rule:    Rule{Action: Allow, Direction: In, Proto: packet.ProtoICMP, DstPorts: Port(80)},
			wantErr: "port match requires",
		},
		{
			name:    "vpg deny",
			rule:    Rule{Action: Deny, Direction: In, VPG: "g"},
			wantErr: "must allow",
		},
		{
			name:    "vpg with ports",
			rule:    Rule{Action: Allow, Direction: In, VPG: "g", Proto: packet.ProtoTCP, DstPorts: Port(1)},
			wantErr: "cannot match ports",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.rule.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestRuleSetFirstMatchWins(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Name: "deny-attacker", Action: Deny, Direction: In,
			Src: packet.MustPrefix("10.0.0.66/32")},
		Rule{Name: "allow-web", Action: Allow, Direction: In,
			Proto: packet.ProtoTCP, DstPorts: Port(80)},
		Rule{Name: "shadowed", Action: Deny, Direction: In,
			Proto: packet.ProtoTCP, DstPorts: Port(80)},
	)

	v := rs.Eval(tcpSummary("10.0.0.66", "10.0.0.2", 99, 80), In)
	if v.Action != Deny || v.Index != 1 || v.Traversed != 1 {
		t.Errorf("attacker verdict = %+v, want deny at rule 1", v)
	}

	v = rs.Eval(tcpSummary("10.0.0.1", "10.0.0.2", 99, 80), In)
	if v.Action != Allow || v.Index != 2 || v.Traversed != 2 {
		t.Errorf("web verdict = %+v, want allow at rule 2", v)
	}

	v = rs.Eval(udpSummary("10.0.0.1", "10.0.0.2", 99, 53), In)
	if v.Action != Deny || v.Index != 0 || v.Traversed != 3 {
		t.Errorf("default verdict = %+v, want default deny after 3 traversed", v)
	}
}

func TestRuleSetStats(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Action: Allow, Direction: In, Proto: packet.ProtoTCP, DstPorts: Port(80)},
	)
	rs.Eval(tcpSummary("1.1.1.1", "2.2.2.2", 9, 80), In)
	rs.Eval(tcpSummary("1.1.1.1", "2.2.2.2", 9, 80), In)
	rs.Eval(tcpSummary("1.1.1.1", "2.2.2.2", 9, 81), In)
	evals, perRule, defHits := rs.Stats()
	if evals != 3 || perRule[0] != 2 || defHits != 1 {
		t.Errorf("stats = %d %v %d, want 3 [2] 1", evals, perRule, defHits)
	}
}

func TestNewRuleSetRejectsInvalid(t *testing.T) {
	if _, err := NewRuleSet(Action(0)); err == nil {
		t.Error("invalid default action accepted")
	}
	if _, err := NewRuleSet(Allow, Rule{}); err == nil {
		t.Error("invalid rule accepted")
	}
}

func TestRuleSetCopiesInput(t *testing.T) {
	rules := []Rule{AllowAllRule()}
	rs := MustRuleSet(Deny, rules...)
	rules[0].Action = Deny
	if rs.Rule(1).Action != Allow {
		t.Error("rule set aliases caller's slice")
	}
}

func TestDepthRuleSet(t *testing.T) {
	for _, depth := range []int{1, 8, 16, 32, 64} {
		rs, err := DepthRuleSet(Deny, depth, 0, AllowAllRule())
		if err != nil {
			t.Fatalf("DepthRuleSet(%d): %v", depth, err)
		}
		if rs.Len() != depth {
			t.Fatalf("DepthRuleSet(%d) has %d rules", depth, rs.Len())
		}
		v := rs.Eval(tcpSummary("10.0.0.1", "10.0.0.2", 1234, 80), In)
		if v.Action != Allow || v.Traversed != depth {
			t.Errorf("depth %d: verdict %+v, want allow with %d traversed", depth, v, depth)
		}
	}
}

func TestTrailingRulesAreFree(t *testing.T) {
	// Paper §3: rules after the action rule do not affect traversal.
	rs, err := DepthRuleSet(Deny, 1, 63, AllowAllRule())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 64 {
		t.Fatalf("DepthRuleSet with 63 trailing rules has %d rules", rs.Len())
	}
	v := rs.Eval(tcpSummary("10.0.0.1", "10.0.0.2", 1, 2), In)
	if v.Traversed != 1 {
		t.Errorf("traversed = %d, want 1 despite 63 trailing rules", v.Traversed)
	}
}

// TestAllowBetween: a pair of host-to-host allow rules admits traffic
// in both directions between the two hosts and nothing else.
func TestAllowBetween(t *testing.T) {
	a := packet.MustPrefix("10.0.0.1/32")
	b := packet.MustPrefix("10.0.0.2/32")
	rs := MustRuleSet(Deny,
		Rule{Name: "allow-a-to-b", Action: Allow, Direction: Both, Src: a, Dst: b},
		Rule{Name: "allow-b-to-a", Action: Allow, Direction: Both, Src: b, Dst: a})
	if v := rs.Eval(tcpSummary("10.0.0.1", "10.0.0.2", 1, 2), In); v.Action != Allow {
		t.Error("a->b denied")
	}
	if v := rs.Eval(tcpSummary("10.0.0.2", "10.0.0.1", 2, 1), In); v.Action != Allow {
		t.Error("b->a denied")
	}
	if v := rs.Eval(tcpSummary("10.0.0.3", "10.0.0.2", 1, 2), In); v.Action != Deny {
		t.Error("third party allowed")
	}
}

func TestVPGRulePair(t *testing.T) {
	local := packet.MustIP("10.0.0.2")
	remote := packet.MustPrefix("10.0.0.0/24")
	pair := VPGRulePair("psq", local, remote)
	rs := MustRuleSet(Deny, pair...)

	sealedIn := packet.Summary{Src: packet.MustIP("10.0.0.1"), Dst: local, Sealed: true}
	if v := rs.Eval(sealedIn, In); v.Action != Allow || v.Rule.VPG != "psq" {
		t.Errorf("sealed inbound verdict = %+v", v)
	}
	clearOut := tcpSummary("10.0.0.2", "10.0.0.1", 1, 2)
	if v := rs.Eval(clearOut, Out); v.Action != Allow || v.Rule == nil || v.Rule.VPG != "psq" {
		t.Errorf("clear outbound verdict = %+v", v)
	}
	// Cleartext inbound traffic must NOT be admitted by the VPG.
	clearIn := tcpSummary("10.0.0.1", "10.0.0.2", 1, 2)
	if v := rs.Eval(clearIn, In); v.Action != Deny {
		t.Errorf("cleartext inbound verdict = %+v, want deny", v)
	}
}

func TestRuleStringRendersDSL(t *testing.T) {
	r := Rule{
		Name: "web", Action: Allow, Direction: In, Proto: packet.ProtoTCP,
		Dst: packet.MustPrefix("10.0.0.2/32"), DstPorts: Port(80),
	}
	got := r.String()
	for _, want := range []string{"allow", "in", "proto tcp", "to 10.0.0.2/32 port 80", "# web"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestCountVPGCandidates(t *testing.T) {
	rs := MustRuleSet(Deny,
		Rule{Action: Allow, Direction: In, VPG: "a"},
		Rule{Action: Allow, Direction: Out, VPG: "a"},
		NonMatchingRule(1),
		Rule{Action: Allow, Direction: In, VPG: "b"},
		Rule{Action: Allow, Direction: Both, VPG: "c"},
	)
	tests := []struct {
		dir       Direction
		traversed int
		want      int
	}{
		{dir: In, traversed: 0, want: 0},
		{dir: In, traversed: 1, want: 1},
		{dir: In, traversed: 2, want: 1}, // out-rule doesn't count inbound
		{dir: In, traversed: 5, want: 3},
		{dir: Out, traversed: 5, want: 2},
		{dir: In, traversed: 99, want: 3}, // clamped to rule count
	}
	for _, tt := range tests {
		if got := rs.CountVPGCandidates(tt.dir, tt.traversed); got != tt.want {
			t.Errorf("CountVPGCandidates(%v, %d) = %d, want %d", tt.dir, tt.traversed, got, tt.want)
		}
	}
}

// Property: Eval agrees with a naive reference scan for arbitrary packets
// against a fixed diverse rule-set.
func TestEvalMatchesReferenceProperty(t *testing.T) {
	rules := []Rule{
		{Action: Deny, Direction: In, Src: packet.MustPrefix("10.0.0.0/8")},
		{Action: Allow, Direction: Both, Proto: packet.ProtoTCP, DstPorts: Port(80)},
		{Action: Allow, Direction: Out, Proto: packet.ProtoUDP, SrcPorts: Ports(1024, 65535)},
		{Action: Deny, Direction: Both, Proto: packet.ProtoICMP},
		{Action: Allow, Direction: In, VPG: "g", Src: packet.MustPrefix("192.168.0.0/16")},
	}
	rs := MustRuleSet(Deny, rules...)

	f := func(srcRaw, dstRaw uint32, sport, dport uint16, protoPick, dirPick, sealed uint8) bool {
		protos := []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
		proto := protos[int(protoPick)%len(protos)]
		dir := In
		if dirPick%2 == 1 {
			dir = Out
		}
		s := packet.Summary{
			Proto: proto,
			Src:   packet.IPFromUint32(srcRaw), Dst: packet.IPFromUint32(dstRaw),
			SrcPort: sport, DstPort: dport,
			HasPorts: proto != packet.ProtoICMP,
			Sealed:   sealed%4 == 0,
		}
		got := rs.Eval(s, dir)

		// Reference: linear scan.
		for i := range rules {
			if rules[i].Matches(s, dir) {
				return got.Index == i+1 && got.Action == rules[i].Action && got.Traversed == i+1
			}
		}
		return got.Index == 0 && got.Action == Deny && got.Traversed == len(rules)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
