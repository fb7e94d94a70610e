package nic

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/packet"
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
