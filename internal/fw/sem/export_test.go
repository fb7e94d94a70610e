package sem

import (
	"barbican/internal/fw"
	"barbican/internal/packet"
)

// Witness is one concrete packet inside an atomic region.
type Witness struct {
	Packet packet.Summary
	Dir    fw.Direction
}

// RegionWitnesses returns one witness per mask-distinct atomic region
// of rs's packet space, as VerifyCompiled enumerates them, or false
// when there are more than limit regions. Every rule matches all
// packets of a region or none, so replaying the witnesses through
// RuleSet.EvalState under every connection state covers every verdict
// the rule set can produce.
func RegionWitnesses(rs *fw.RuleSet, limit int) ([]Witness, bool) {
	sp := newSpace(rs)
	var out []Witness
	complete := sp.eachRegion(sp.sets[0], func(c class, _ []uint64, spans []fw.Span) bool {
		if len(out) == limit {
			return false
		}
		pkt, dir := regionFor(c, spans).Witness()
		out = append(out, Witness{Packet: pkt, Dir: dir})
		return true
	})
	return out, complete
}
