package core

import (
	"fmt"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
)

// RuleHit is one rule's slice of a run's firewall work: how often it
// matched and the predicted per-packet cost/latency of a packet that
// walks to (and matches at) its position.
type RuleHit struct {
	Index     int
	Text      string
	Hits      uint64
	CostUnits float64
	Latency   time.Duration
}

// RuleAttribution is the per-rule breakdown of the target's policy
// enforcement over one run: hit counts from the live rule-set plus
// the profile's predicted walk cost at each rule position. Default*
// describe packets that walked the full depth without matching.
type RuleAttribution struct {
	Evals          uint64
	DefaultHits    uint64
	DefaultCost    float64
	DefaultLatency time.Duration
	Rules          []RuleHit
}

// ruleAttribution snapshots the target's enforcement-point counters,
// priced by the profile of whichever point enforces the rules: the
// card, or else the host filter. Returns nil when the target enforces
// no policy.
func ruleAttribution(tb *Testbed) *RuleAttribution {
	rs, profile := tb.Target.NIC().RuleSet(), tb.Target.NIC().Profile()
	if hf := tb.Target.Firewall(); rs == nil && hf.RuleSet() != nil {
		rs, profile = hf.RuleSet(), hf.Profile()
	}
	if rs == nil {
		return nil
	}
	a := &RuleAttribution{
		Evals:       rs.EvalCount(),
		DefaultHits: rs.DefaultHits(),
		DefaultCost: profile.Cost(rs.Len(), 0),
	}
	a.DefaultLatency = profile.ServiceTime(a.DefaultCost)
	rs.Each(func(i int, r *fw.Rule) bool {
		cost := profile.Cost(i, 0)
		a.Rules = append(a.Rules, RuleHit{
			Index:     i,
			Text:      r.String(),
			Hits:      rs.MatchCount(i),
			CostUnits: cost,
			Latency:   profile.ServiceTime(cost),
		})
		return true
	})
	return a
}

// dropCounters flattens the target NIC's per-reason drop arrays into
// a name → count map (nonzero reasons only, rx and tx merged), the
// authoritative totals embedded in trace exports.
func dropCounters(in *Instrumentation) map[string]uint64 {
	if in == nil || in.target == nil {
		return nil
	}
	rx, tx := in.target.DropCounts()
	out := make(map[string]uint64)
	for _, r := range tracing.DropReasons() {
		if n := rx[r] + tx[r]; n > 0 {
			out[r.String()] = n
		}
	}
	return out
}

// dropCounterTracks converts the flight recorder's per-reason target
// drop series into Perfetto counter tracks (nonzero series only).
func dropCounterTracks(in *Instrumentation) []tracing.CounterTrack {
	if in == nil || in.Recorder == nil {
		return nil
	}
	var tracks []tracing.CounterTrack
	for _, r := range tracing.DropReasons() {
		id := fmt.Sprintf(`nic_drops_total{dir="rx",host="target",reason=%q}`, r.String())
		series, ok := in.Recorder.Series(id)
		if !ok {
			continue
		}
		var points []tracing.CounterPoint
		nonzero := false
		for _, pt := range series.Points {
			if pt.V != 0 {
				nonzero = true
			}
			points = append(points, tracing.CounterPoint{At: pt.T, Value: pt.V})
		}
		if !nonzero {
			continue
		}
		tracks = append(tracks, tracing.CounterTrack{Name: "target drops " + r.String(), Points: points})
	}
	return tracks
}

// TraceExportOptions returns what a Perfetto export of the run's trace
// embeds: the target card's authoritative per-reason drop totals and
// the recorder's drop tracks.
func (in *Instrumentation) TraceExportOptions() tracing.ExportOptions {
	return tracing.ExportOptions{Drops: dropCounters(in), Counters: dropCounterTracks(in)}
}
