package main

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/nic/conntrack"
	"barbican/internal/stack"
)

// fingerprint is a run's simulated result: a pure function of workload,
// seed and window. The default seed's is pinned in fingerprints.json.
type fingerprint struct {
	SimNS         int64           `json:"sim_ns"`
	Frames        uint64          `json:"frames"`
	Events        uint64          `json:"events"`
	IperfBytes    uint64          `json:"iperf_bytes"`
	FloodSent     uint64          `json:"flood_sent"`
	SessionSent   uint64          `json:"session_sent"`
	SessionEchoed uint64          `json:"session_echoed"`
	SessionReset  bool            `json:"session_reset"`
	Conntrack     conntrack.Stats `json:"conntrack"`
	CTEntries     int             `json:"ct_entries"`
	Cards         []cardPrint     `json:"cards"`
}

// cardPrint is one host card's share of the fingerprint: its per-reason
// drop counters (indexed by tracing.DropReason) and VPG envelope counts.
type cardPrint struct {
	Host    string   `json:"host"`
	RxDrops []uint64 `json:"rx_drops"`
	TxDrops []uint64 `json:"tx_drops"`
	Sealed  uint64   `json:"sealed"`
	Opened  uint64   `json:"opened"`
}

// outcome is what a finished scenario reports: its fingerprint, the
// iperf result, the counters behind the per-layer ratios, and the
// conservation laws it broke.
type outcome struct {
	fp    fingerprint
	iperf measure.IperfResult
	// walked counts rule positions examined by linear walks; cacheHits
	// and cacheLookups are the cards' flow-cache counters.
	walked       uint64
	cacheHits    uint64
	cacheLookups uint64
	violations   []string
}

func (o outcome) cryptoOps() uint64 {
	var n uint64
	for _, c := range o.fp.Cards {
		n += c.Sealed + c.Opened
	}
	return n
}

// hosts returns the testbed's hosts in a fixed order.
func hosts(tb *core.Testbed) []*stack.Host {
	return []*stack.Host{tb.PolicyServer, tb.Attacker, tb.Client, tb.Target}
}

// outcome reads a finished scenario. A frame is one frame accepted by a
// host's link endpoint.
func (sc *scenario) outcome() outcome {
	tb := sc.tb
	o := outcome{
		iperf: sc.iperf,
		fp: fingerprint{
			SimNS:         int64(tb.Kernel.Now()),
			Events:        tb.Kernel.Executed(),
			IperfBytes:    sc.iperf.BytesReceived,
			SessionSent:   sc.session.sent,
			SessionEchoed: sc.session.echoed,
			SessionReset:  sc.session.reset,
		},
	}
	if sc.flood != nil {
		o.fp.FloodSent = sc.flood.Sent()
	}
	if ct := tb.Target.NIC().Conntrack(); ct != nil {
		o.fp.Conntrack, o.fp.CTEntries = ct.Stats(), ct.Len()
	}
	for _, h := range hosts(tb) {
		card := h.NIC()
		st := card.Stats()
		rx, tx := card.DropCounts()
		o.fp.Frames += card.Endpoint().Stats().SentFrames
		o.fp.Cards = append(o.fp.Cards, cardPrint{
			Host: h.Name(), RxDrops: rx[:], TxDrops: tx[:], Sealed: st.Sealed, Opened: st.Opened,
		})
		fc := card.FlowCacheStats()
		o.cacheHits += fc.Hits
		o.cacheLookups += fc.Hits + fc.Misses
		if rs := card.RuleSet(); rs != nil && !card.Profile().CompiledMatch {
			o.walked += rulesWalked(rs)
		}
	}
	o.violations = sc.laws()
	return o
}

// rulesWalked is how many rule positions a linear first-match walk
// examined: a match at position i examined i rules, a default verdict
// all of them.
func rulesWalked(rs *fw.RuleSet) uint64 {
	_, perRule, defaults := rs.Stats()
	n := defaults * uint64(rs.Len())
	for i, hits := range perRule {
		n += uint64(i+1) * hits
	}
	return n
}

// laws checks the conservation laws that hold for any seed, returning
// one line per violation.
func (sc *scenario) laws() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	tb := sc.tb
	if now := tb.Kernel.Now(); now != sc.end {
		fail("clock: the run ended at %v, want %v", now, sc.end)
	}
	var sealed, opened uint64
	for _, h := range hosts(tb) {
		card := h.NIC()
		st := card.Stats()
		rx, tx := card.DropCounts()
		if dropped := sum(tx[:]); st.TxRequests != st.TxAllowed+dropped {
			fail("%s card: %d tx requests, but %d allowed + %d dropped", h.Name(), st.TxRequests, st.TxAllowed, dropped)
		}
		// A frame still on the card's processor when the run ends is
		// neither delivered nor dropped yet; the ring bounds how many.
		done := st.RxAllowed + sum(rx[:])
		if done > st.RxFrames || st.RxFrames-done > uint64(card.QueueDepth()) {
			fail("%s card: %d rx frames, %d delivered or dropped, %d on the ring", h.Name(), st.RxFrames, done, card.QueueDepth())
		}
		if rs, fc := card.RuleSet(), card.FlowCacheStats(); rs != nil && fc.Hits+fc.Misses > 0 && fc.Hits+fc.Misses != rs.EvalCount() {
			fail("%s card: %d flow-cache lookups, but %d policy evaluations", h.Name(), fc.Hits+fc.Misses, rs.EvalCount())
		}
		sealed += st.Sealed
		opened += st.Opened
	}
	if opened > sealed {
		fail("vpg: %d envelopes opened, but only %d sealed", opened, sealed)
	}
	if sc.flood != nil {
		if req := tb.Attacker.NIC().Stats().TxRequests; req != sc.flood.Sent() {
			fail("flood: %d packets injected, but the attacker's card saw %d", sc.flood.Sent(), req)
		}
	}
	if ct := tb.Target.NIC().Conntrack(); ct != nil {
		s := ct.Stats()
		if live := int64(s.Created) - int64(s.Evicted) - int64(s.Expired); s.Flushes == 0 && live != int64(ct.Len()) {
			fail("conntrack: created %d - evicted %d - expired %d = %d, but %d entries are live", s.Created, s.Evicted, s.Expired, live, ct.Len())
		}
		if s.Hits > s.Lookups {
			fail("conntrack: %d hits from %d lookups", s.Hits, s.Lookups)
		}
	}
	return bad
}

func sum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}
