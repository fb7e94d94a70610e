package nic

import (
	"math/rand"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic/conntrack"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// Address and port pools the equivalence stream and its policies share,
// so seeded rules land on seeded packets at every depth.
var (
	equivRemotes  = []packet.IP{ipA, packet.MustIP("10.0.0.7"), packet.MustIP("192.168.1.5")}
	equivHosts    = append([]packet.IP{ipB}, equivRemotes...)
	equivServices = []uint16{22, 53, 80, 2000, 5001}
	equivClients  = []uint16{40000, 40001, 40002}
	equivPrefixes = []packet.Prefix{
		{}, packet.MustPrefix("10.0.0.0/24"), packet.MustPrefix("10.0.0.0/29"),
		{Addr: ipA, Bits: 32}, {Addr: ipB, Bits: 32}, packet.MustPrefix("192.168.1.0/24"),
	}
	equivStates = []fw.ConnState{fw.StateNew, fw.StateEstablished, fw.StateRelated, fw.StateInvalid}
)

// equivPorts draws a port matcher: any, one port of either pool, or a
// range.
func equivPorts(rng *rand.Rand) fw.PortRange {
	switch rng.Intn(5) {
	case 0:
		return fw.Port(equivServices[rng.Intn(len(equivServices))])
	case 1:
		return fw.Port(equivClients[rng.Intn(len(equivClients))])
	case 2:
		return fw.Ports(1, 1023)
	}
	return fw.PortRange{}
}

// equivRules draws a seeded first-match policy of depth rules over the
// stream's pools. Stateful policies carry state matchers on about half
// their rules; a non-empty group splices the VPG pair in a third of the
// way down, so sealed traffic and egress sealing traverse plain rules
// first.
func equivRules(rng *rand.Rand, depth int, stateful bool, group string) *fw.RuleSet {
	var rules []fw.Rule
	for len(rules) < depth {
		if group != "" && len(rules) == depth/3 {
			rules = append(rules, fw.VPGRulePair(group, ipB, packet.MustPrefix("10.0.0.0/24"))...)
			continue
		}
		// One side of every rule names a single host, and both sides of
		// a rule for any protocol do, so no rule is a catch-all and
		// packets reach every depth and the default.
		host := packet.Prefix{Addr: equivHosts[rng.Intn(len(equivHosts))], Bits: 32}
		r := fw.Rule{
			Action:    []fw.Action{fw.Allow, fw.Deny}[rng.Intn(2)],
			Direction: []fw.Direction{fw.In, fw.Out, fw.Both}[rng.Intn(3)],
			Proto:     []packet.Protocol{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}[rng.Intn(4)],
			Src:       host,
			Dst:       equivPrefixes[rng.Intn(len(equivPrefixes))],
		}
		if r.Proto == 0 {
			r.Dst = packet.Prefix{Addr: equivHosts[rng.Intn(len(equivHosts))], Bits: 32}
		}
		if rng.Intn(2) == 0 {
			r.Src, r.Dst = r.Dst, r.Src
		}
		if r.Proto == packet.ProtoTCP || r.Proto == packet.ProtoUDP {
			r.SrcPorts, r.DstPorts = equivPorts(rng), equivPorts(rng)
		}
		if stateful && rng.Intn(2) == 0 {
			r.States = fw.MaskOf(equivStates[rng.Intn(len(equivStates))], equivStates[rng.Intn(len(equivStates))])
		}
		rules = append(rules, r)
	}
	return fw.MustRuleSet([]fw.Action{fw.Allow, fw.Deny}[rng.Intn(2)], rules...)
}

// equivDatagram draws one datagram between the card's host and remote:
// TCP with any control bits, UDP, or portless ICMP echo, on a small
// flow pool so conntrack sees new, established and related traffic.
func equivDatagram(rng *rand.Rand, dir fw.Direction, remote packet.IP) *packet.Datagram {
	src, dst := remote, ipB
	if dir == fw.Out {
		src, dst = ipB, remote
	}
	sport, dport := equivClients[rng.Intn(len(equivClients))], equivServices[rng.Intn(len(equivServices))]
	if rng.Intn(2) == 0 {
		sport, dport = dport, sport // the reply leg of a flow
	}
	switch rng.Intn(6) {
	case 0, 1, 2:
		flags := []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK,
			packet.FlagACK | packet.FlagPSH, packet.FlagFIN | packet.FlagACK, packet.FlagRST}[rng.Intn(6)]
		return tcpDgram(src, dst, sport, dport, flags)
	case 3, 4:
		return udpDatagram(src, dst, sport, dport, rng.Intn(200))
	}
	m := &packet.ICMPMessage{Type: []uint8{0, 8}[rng.Intn(2)], ID: 7, Seq: uint16(rng.Intn(100))}
	return packet.NewDatagram(src, dst, packet.ProtoICMP, 1, m.MarshalTo(nil))
}

// refTwin is the reference the card is held to: a twin rule set walked
// by fw.RuleSet.EvalState, classified by a twin state table kept in
// step the way the card's policy stage keeps its own — INVALID never
// reaches the rules, and only allowed tracked packets are committed.
type refTwin struct {
	rs *fw.RuleSet
	ct *conntrack.Table
}

func (tw *refTwin) eval(s packet.Summary, dir fw.Direction, now time.Duration) (fw.Verdict, fw.ConnState, bool) {
	cs := fw.StateNone
	if tw.ct != nil && !s.Sealed && tw.rs.Stateful() {
		if cs = tw.ct.Classify(s, now); cs == fw.StateInvalid {
			return fw.Verdict{}, cs, false
		}
	}
	v := tw.rs.EvalState(s, dir, cs)
	if v.Action == fw.Allow && cs != fw.StateNone {
		tw.ct.Commit(s, now)
	}
	return v, cs, true
}

// bumped returns the index whose count grew from before to after, or
// -1 when none did.
func bumped(before, after []uint64) int {
	for i, n := range after {
		if i >= len(before) && n > 0 || i < len(before) && n > before[i] {
			return i
		}
	}
	return -1
}

// TestCardMatcherEquivalence drives a seeded packet stream through each
// card's product path — Send for egress, handleFrame for ingress — and
// holds every verdict to the reference walk of a twin rule set: the
// Traversed and matched index the card charged (its profiler records
// both from the verdict), the rule the card's own counters credit, and
// at the end every per-rule count, default hit and eval total. The
// stream mixes sealed and cleartext traffic, portless ICMP, both
// directions, and on the stateful card every connection state.
func TestCardMatcherEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		p        Profile
		depth    int
		stateful bool
		group    string
	}{
		{"efw", EFW(), 64, false, ""},
		{"adf", ADF(), 48, false, ""},
		{"adf-vpg", ADF(), 32, false, "psq"},
		{"stateful", Stateful(), 64, true, ""},
		{"nextgen", NextGen(), 64, false, ""},
	}
	const packets = 1500
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(21 + ci)))
			k := sim.NewKernel()
			ea, eb := link.New(k, link.Config{QueueFrames: 1 << 16})
			peer := New(k, macA, ADF(), ea)
			n := New(k, macB, tc.p, eb)
			n.SetDeliver(func(*packet.Frame) {})
			if tc.group != "" {
				g, err := vpg.NewGroup(tc.group, vpg.DeriveKey("k"), ipA, ipB)
				if err != nil {
					t.Fatal(err)
				}
				if err := peer.InstallGroup(g, ipA); err != nil {
					t.Fatal(err)
				}
				if err := n.InstallGroup(g, ipB); err != nil {
					t.Fatal(err)
				}
			}
			rs := equivRules(rng, tc.depth, tc.stateful, tc.group)
			n.InstallRuleSet(rs)
			tw := &refTwin{rs: fw.MustRuleSet(rs.Default(), rs.Rules()...)}
			if tc.p.ConntrackEntries > 0 {
				tw.ct = conntrack.New(conntrack.Config{Cap: tc.p.ConntrackEntries, Policy: tc.p.ConntrackEvict})
			}

			var sealed, vpgMatched, portless, defaults, evaluated int
			var dirs [2]int
			var states [fw.NumConnStates]int
			hits := map[int]bool{}
			for i := 0; i < packets; i++ {
				dir := []fw.Direction{fw.In, fw.Out}[rng.Intn(2)]
				remote := equivRemotes[rng.Intn(len(equivRemotes))]
				d := equivDatagram(rng, dir, remote)
				var s packet.Summary
				var f *packet.Frame
				if dir == fw.In {
					f = &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}
					if tc.group != "" && remote == ipA && rng.Intn(2) == 0 {
						var ok bool
						if f, ok = peer.seal(tc.group, d, macB); !ok {
							t.Fatal("peer could not seal")
						}
					}
					var err error
					if s, err = packet.Summarize(f); err != nil {
						t.Fatal(err)
					}
				} else {
					var err error
					if s, err = packet.SummarizeDatagram(d); err != nil {
						t.Fatal(err)
					}
				}
				want, cs, ok := tw.eval(s, dir, k.Now())

				ev0, before, def0 := rs.Stats()
				side := &n.proc.rx
				if dir == fw.Out {
					side = &n.proc.tx
				}
				walks0, hits0, cached0 := append([]uint64(nil), side.walks...), append([]uint64(nil), side.hits...), side.cacheHits
				if dir == fw.In {
					n.handleFrame(f)
				} else {
					n.Send(d, macA)
				}
				if err := k.RunUntil(k.Now() + 2*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				ev1, after, def1 := rs.Stats()

				if !ok {
					if ev1 != ev0 {
						t.Fatalf("packet %d (%v %v): INVALID reached the rules", i, dir, s)
					}
					states[cs]++
					continue
				}
				gotIndex := bumped(before, after) + 1
				if def1 > def0 {
					gotIndex = 0
				}
				if ev1 != ev0+1 || gotIndex != want.Index {
					t.Fatalf("packet %d (%v %v, %v): card credited rule %d over %d evals, reference matched rule %d",
						i, dir, s, cs, gotIndex, ev1-ev0, want.Index)
				}
				// A flow-cache hit replays the verdict without a match.
				w, h := bumped(walks0, side.walks), bumped(hits0, side.hits)
				if cached := side.cacheHits - cached0; cached == 1 && w == -1 {
					w = want.Traversed
				}
				if w != want.Traversed || h != want.Index {
					t.Fatalf("packet %d (%v %v, %v): card charged traversed %d index %d, reference %d/%d",
						i, dir, s, cs, w, h, want.Traversed, want.Index)
				}
				evaluated++
				dirs[dir-fw.In]++
				states[cs]++
				hits[want.Index] = true
				if s.Sealed {
					sealed++
				}
				if !s.HasPorts {
					portless++
				}
				if want.Index == 0 {
					defaults++
				}
				if want.Rule != nil && want.Rule.IsVPG() {
					vpgMatched++
				}
			}

			ev1, per1, def1 := rs.Stats()
			ev2, per2, def2 := tw.rs.Stats()
			if ev1 != ev2 || def1 != def2 {
				t.Fatalf("evals %d / default hits %d, reference %d / %d", ev1, def1, ev2, def2)
			}
			for i := range per1 {
				if per1[i] != per2[i] {
					t.Fatalf("rule %d matched %d times, reference %d", i+1, per1[i], per2[i])
				}
			}
			if n.Locked() {
				t.Fatal("card locked up; the stream must stay below the lockup rate")
			}

			// The stream must reach what it claims to cover.
			if dirs[0] == 0 || dirs[1] == 0 || portless == 0 || defaults == 0 || len(hits) < 5 {
				t.Errorf("coverage: in %d out %d portless %d defaults %d distinct verdicts %d",
					dirs[0], dirs[1], portless, defaults, len(hits))
			}
			if tc.group != "" && (sealed == 0 || vpgMatched == 0) {
				t.Errorf("coverage: sealed %d, VPG-rule verdicts %d", sealed, vpgMatched)
			}
			if tc.stateful {
				for _, st := range equivStates {
					if states[st] == 0 {
						t.Errorf("coverage: no packet classified %v", st)
					}
				}
			} else if states[fw.StateNone] != evaluated {
				t.Errorf("stateless card classified %d of %d packets", evaluated-states[fw.StateNone], evaluated)
			}
			t.Logf("%d evaluated: in %d out %d, sealed %d, portless %d, defaults %d, %d distinct verdicts, states %v",
				evaluated, dirs[0], dirs[1], sealed, portless, defaults, len(hits), states)
		})
	}
}
