package nic

import (
	"fmt"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// TestExplainCostMatchesCostPath: explain's predicted costs are the
// card's own cost model. The total must equal CostPath for the match
// path the packet takes, plus the conntrack terms, and the cached-flow
// total must equal CostPath on the cache-hit path. The sealed VPG case
// pins the crypto term.
func TestExplainCostMatchesCostPath(t *testing.T) {
	peer := packet.MustPrefix("10.0.0.0/24")
	vpgRules := fw.MustRuleSet(fw.Deny, fw.VPGRulePair("grp", ipB, peer)...)
	stateful := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "new-web", Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP,
			DstPorts: fw.Port(80), States: fw.MaskOf(fw.StateNew)},
		fw.Rule{Name: "established", Action: fw.Allow, Direction: fw.Both,
			States: fw.MaskOf(fw.StateEstablished, fw.StateRelated)})

	tcp := packet.Summary{Proto: packet.ProtoTCP, HasPorts: true, Src: ipA, Dst: ipB,
		SrcPort: 40000, DstPort: 80, Flags: packet.FlagSYN, IPLen: 40}
	sealed := tcp
	sealed.Sealed, sealed.IPLen = true, 1200
	bareACK := tcp
	bareACK.Flags = packet.FlagACK

	for _, tt := range []struct {
		name   string
		p      Profile
		rs     *fw.RuleSet
		s      packet.Summary
		prior  string
		crypto bool
		// insert and invalid pin which conntrack branch the case takes.
		insert, invalid bool
	}{
		{name: "efw linear walk", p: EFW(), rs: depth64Allow(t), s: tcp, prior: "none"},
		{name: "efw no policy", p: EFW(), s: tcp, prior: "none"},
		{name: "nextgen compiled and cached", p: NextGen(), rs: depth64Allow(t), s: tcp, prior: "none"},
		{name: "adf sealed vpg", p: ADF(), rs: vpgRules, s: sealed, prior: "none", crypto: true},
		{name: "stateful new flow", p: Stateful(), rs: stateful, s: tcp, prior: "none", insert: true},
		{name: "stateful established", p: Stateful(), rs: stateful, s: bareACK, prior: "established"},
		{name: "stateful invalid", p: Stateful(), rs: stateful, s: bareACK, prior: "none", invalid: true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e := Explain(tt.p, tt.rs, tt.s, fw.In, tt.prior)
			if e.CTCreated != tt.insert || e.CTInvalid != tt.invalid {
				t.Fatalf("conntrack created=%v invalid=%v, want %v/%v", e.CTCreated, e.CTInvalid, tt.insert, tt.invalid)
			}
			path := MatchWalk
			if tt.rs == nil || e.CTInvalid {
				path = MatchNone
			}
			cryptoBytes := 0
			if tt.crypto {
				cryptoBytes = tt.s.IPLen
				if e.CryptoCost == 0 {
					t.Fatalf("sealed VPG packet charged no crypto: %+v", e)
				}
			}
			ct := e.CTLookupCost + e.CTInsertCost
			if want := tt.p.CostPath(path, e.Traversed, cryptoBytes) + ct; e.TotalCost != want {
				t.Errorf("TotalCost = %v, want CostPath(%v, %d, %d) + conntrack = %v",
					e.TotalCost, path, e.Traversed, cryptoBytes, want)
			}
			if e.CachedTotalCost != 0 {
				if want := tt.p.CostPath(MatchCacheHit, 0, cryptoBytes) + e.CTLookupCost; e.CachedTotalCost != want {
					t.Errorf("CachedTotalCost = %v, want %v", e.CachedTotalCost, want)
				}
			}
		})
	}
}

// TestExplainMatchesCard sends one packet through a real card and holds
// Explain to what the card did: the same verdict (the rule the card's
// rule set counted a hit on), the same fate (the drop reason, or
// delivery/transmission) and a TotalCost equal to the units the card's
// processor was charged. It covers every CLI profile over a synthetic,
// a stateful and a VPG policy, inbound, outbound and inbound sealed,
// from every assumed conntrack history.
func TestExplainMatchesCard(t *testing.T) {
	peers := packet.MustPrefix("10.0.0.0/24")
	policies := []struct {
		name string
		rs   func() *fw.RuleSet
	}{
		{"synthetic", func() *fw.RuleSet { return depth64Allow(t) }},
		{"stateful", statefulRules},
		{"vpg", func() *fw.RuleSet { return fw.MustRuleSet(fw.Deny, fw.VPGRulePair("psq", ipB, peers)...) }},
	}
	for _, card := range []struct {
		device string
		p      Profile
	}{{"standard", Standard()}, {"efw", EFW()}, {"adf", ADF()}, {"nextgen", NextGen()}, {"stateful", Stateful()}} {
		device, p := card.device, card.p
		for _, pol := range policies {
			for _, dir := range []string{"in", "out", "in-sealed"} {
				for _, flags := range []packet.TCPFlags{packet.FlagSYN, packet.FlagACK} {
					for _, prior := range []string{"none", "new", "established"} {
						name := fmt.Sprintf("%s/%s/%s/%v/%s", device, pol.name, dir, flags, prior)
						t.Run(name, func(t *testing.T) {
							explainAgainstCard(t, p, pol.rs(), dir, flags, prior)
						})
					}
				}
			}
		}
	}
}

// explainAgainstCard runs one TestExplainMatchesCard case. The subject
// card b (ipB) holds rs and the psq group; the packet arrives from, or
// leaves for, ipA.
func explainAgainstCard(t *testing.T, p Profile, rs *fw.RuleSet, dir string, flags packet.TCPFlags, prior string) {
	k := sim.NewKernel()
	_, b := pair(t, k, Standard(), p)
	g, err := vpg.NewGroup("psq", vpg.DeriveKey("k"), ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallGroup(g, ipB); err != nil {
		t.Fatal(err)
	}
	b.InstallRuleSet(rs)
	delivered := 0
	b.SetDeliver(func(*packet.Frame) { delivered++ })

	var (
		s     packet.Summary
		fdir  = fw.In
		send  func() bool
		drops func() [tracing.NumDropReasons]uint64
	)
	if dir == "out" {
		d := tcpDgram(ipB, ipA, 2000, 40000, flags)
		if s, err = packet.SummarizeDatagram(d); err != nil {
			t.Fatal(err)
		}
		fdir = fw.Out
		send = func() bool { return b.Send(d, macA) }
		drops = func() [tracing.NumDropReasons]uint64 { _, tx := b.DropCounts(); return tx }
	} else {
		d := tcpDgram(ipA, ipB, 40000, 2000, flags)
		f := &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4, Payload: d.MarshalTo(nil)}
		if dir == "in-sealed" {
			env, err := g.Seal(nil, ipA, ipB, packet.ProtoTCP, d.Payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			outer := packet.NewDatagram(ipA, ipB, packet.ProtoVPGEncap, 1, env)
			f = &packet.Frame{Dst: macB, Src: macA, Type: packet.EtherTypeVPG, Payload: outer.MarshalTo(nil)}
		}
		if s, err = packet.Summarize(f); err != nil {
			t.Fatal(err)
		}
		send = func() bool { b.handleFrame(f); return true }
		drops = func() [tracing.NumDropReasons]uint64 { rx, _ := b.DropCounts(); return rx }
	}

	e := Explain(p, rs, s, fdir, prior)
	if b.ct != nil {
		if err := k.RunUntil(seedPrior(b.ct, s, prior)); err != nil {
			t.Fatal(err)
		}
	}
	units := b.proc.UnitsDone()
	sent := send()
	if got := b.proc.UnitsDone() - units; got != e.TotalCost {
		t.Errorf("card charged %v units, explain predicts %v\n%s", got, e.TotalCost, e.Render())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	want := tracing.DropNone
	switch {
	case e.CTInvalid:
		want = tracing.DropNoState
	case e.Action == fw.Deny:
		want = tracing.DropRuleDeny
	}
	got := tracing.DropNone
	for r, n := range drops() {
		if n > 0 {
			got = tracing.DropReason(r)
		}
	}
	if got != want {
		t.Errorf("card dropped with %v, explain predicts %v\n%s", got, want, e.Render())
	}
	if passed := sent && (fdir == fw.Out || delivered == 1); passed != (want == tracing.DropNone) {
		t.Errorf("card passed the packet: %v, explain predicts %v", passed, want == tracing.DropNone)
	}

	evals, perRule, defaults := rs.Stats()
	switch {
	case e.CTInvalid:
		if evals != 0 {
			t.Errorf("card evaluated the rules %d times for an INVALID packet", evals)
		}
	case e.RuleIndex > 0:
		if evals != 1 || perRule[e.RuleIndex-1] != 1 {
			t.Errorf("card matched %v, explain predicts rule %d", perRule, e.RuleIndex)
		}
	case evals != 1 || defaults != 1:
		t.Errorf("card: %d evaluations, %d default hits; explain predicts the default action", evals, defaults)
	}
}
