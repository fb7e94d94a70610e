package hostfw

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

var (
	hostIP      = packet.MustIP("10.0.0.2")
	peerIPs     = []packet.IP{packet.MustIP("10.0.0.1"), packet.MustIP("10.0.0.7"), packet.MustIP("192.168.1.5")}
	allHosts    = append([]packet.IP{hostIP}, peerIPs...)
	servicePort = []uint16{22, 53, 80, 5001}
	clientPort  = []uint16{40000, 40001, 40002}
	everyState  = []fw.ConnState{fw.StateNew, fw.StateEstablished, fw.StateRelated, fw.StateInvalid}
)

// equivPolicy draws a seeded first-match policy over the stream's
// hosts and ports, with state matchers on about half its rules and a
// VPG pair a third of the way down. One side of every rule names a
// single host, so verdicts spread over the depth and the default.
func equivPolicy(rng *rand.Rand, depth int) *fw.RuleSet {
	var rules []fw.Rule
	for len(rules) < depth {
		if len(rules) == depth/3 {
			rules = append(rules, fw.VPGRulePair("psq", hostIP, packet.MustPrefix("10.0.0.0/24"))...)
			continue
		}
		host := func() packet.Prefix { return packet.Prefix{Addr: allHosts[rng.Intn(len(allHosts))], Bits: 32} }
		r := fw.Rule{
			Action:    []fw.Action{fw.Allow, fw.Deny}[rng.Intn(2)],
			Direction: []fw.Direction{fw.In, fw.Out, fw.Both}[rng.Intn(3)],
			Proto:     []packet.Protocol{0, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}[rng.Intn(4)],
			Src:       host(),
			Dst:       []packet.Prefix{{}, packet.MustPrefix("10.0.0.0/24")}[rng.Intn(2)],
		}
		if r.Proto == 0 {
			r.Dst = host()
		}
		if rng.Intn(2) == 0 {
			r.Src, r.Dst = r.Dst, r.Src
		}
		if r.Proto == packet.ProtoTCP || r.Proto == packet.ProtoUDP {
			switch rng.Intn(3) {
			case 0:
				r.DstPorts = fw.Port(servicePort[rng.Intn(len(servicePort))])
			case 1:
				r.SrcPorts = fw.Ports(40000, 40001)
			}
		}
		if rng.Intn(2) == 0 {
			r.States = fw.MaskOf(everyState[rng.Intn(len(everyState))], everyState[rng.Intn(len(everyState))])
		}
		rules = append(rules, r)
	}
	return fw.MustRuleSet([]fw.Action{fw.Allow, fw.Deny}[rng.Intn(2)], rules...)
}

// equivSummary draws one packet between the host and a peer: TCP with
// any control bits, UDP, portless ICMP, or a sealed VPG envelope.
func equivSummary(rng *rand.Rand, dir fw.Direction) packet.Summary {
	peer := peerIPs[rng.Intn(len(peerIPs))]
	s := packet.Summary{Src: peer, Dst: hostIP, IPLen: 40 + rng.Intn(1400)}
	if dir == fw.Out {
		s.Src, s.Dst = hostIP, peer
	}
	s.SrcPort, s.DstPort = clientPort[rng.Intn(len(clientPort))], servicePort[rng.Intn(len(servicePort))]
	if rng.Intn(2) == 0 {
		s.SrcPort, s.DstPort = s.DstPort, s.SrcPort
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		s.Proto, s.HasPorts = packet.ProtoTCP, true
		s.Flags = []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK,
			packet.FlagFIN | packet.FlagACK, packet.FlagRST}[rng.Intn(5)]
	case 3, 4:
		s.Proto, s.HasPorts = packet.ProtoUDP, true
	case 5, 6:
		s.Proto, s.SrcPort, s.DstPort = packet.ProtoICMP, 0, 0
	default:
		s.Proto, s.SrcPort, s.DstPort, s.Sealed = packet.ProtoUDP, 0, 0, true
	}
	return s
}

// TestHostMatcherEquivalence drives a seeded packet stream through the
// host firewall's product path (Filter) and holds every
// verdict to the reference walk of a twin rule set: the Traversed the
// host was charged for (recovered from its processor's units), the rule
// its counters credit, and at the end every per-rule count, default hit
// and eval total. The host tracks no connections, so every packet
// reaches both walks classified StateNone.
func TestHostMatcherEquivalence(t *testing.T) {
	const packets = 2000
	t.Run("iptables", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		k := sim.NewKernel()
		p := IPTables()
		f := New(k, p)
		rs := equivPolicy(rng, 64)
		f.Install(rs)
		twin := fw.MustRuleSet(rs.Default(), rs.Rules()...)

		var sealed, portless, defaults int
		var dirs [2]int
		for i := 0; i < packets; i++ {
			dir := []fw.Direction{fw.In, fw.Out}[rng.Intn(2)]
			s := equivSummary(rng, dir)
			now := k.Now()
			want := twin.EvalState(s, dir, fw.StateNone)

			units0 := f.proc.UnitsDone()
			ev0, before, def0 := rs.Stats()
			f.Filter(s, dir)
			if err := k.RunUntil(now + time.Millisecond); err != nil {
				t.Fatal(err)
			}
			ev1, after, def1 := rs.Stats()
			index := 0
			if def1 == def0 {
				for j := range after {
					if after[j] > before[j] {
						index = j + 1
					}
				}
			}
			traversed := int(math.Round((f.proc.UnitsDone() - units0 - p.BaseCost) / p.PerRuleCost))
			if ev1 != ev0+1 || index != want.Index || traversed != want.Traversed {
				t.Fatalf("packet %d (%v %v): host credited rule %d over %d evals and charged %d rules, reference rule %d at %d",
					i, dir, s, index, ev1-ev0, traversed, want.Index, want.Traversed)
			}
			dirs[dir-fw.In]++
			if s.Sealed {
				sealed++
			}
			if !s.HasPorts {
				portless++
			}
			if want.Index == 0 {
				defaults++
			}
		}

		ev1, per1, def1 := rs.Stats()
		ev2, per2, def2 := twin.Stats()
		if ev1 != ev2 || def1 != def2 {
			t.Fatalf("evals %d / default hits %d, reference %d / %d", ev1, def1, ev2, def2)
		}
		for i := range per1 {
			if per1[i] != per2[i] {
				t.Fatalf("rule %d matched %d times, reference %d", i+1, per1[i], per2[i])
			}
		}
		if dirs[0] == 0 || dirs[1] == 0 || sealed == 0 || portless == 0 || defaults == 0 {
			t.Errorf("coverage: in %d out %d sealed %d portless %d defaults %d", dirs[0], dirs[1], sealed, portless, defaults)
		}
		t.Logf("in %d out %d, sealed %d, portless %d, defaults %d", dirs[0], dirs[1], sealed, portless, defaults)
	})
}
