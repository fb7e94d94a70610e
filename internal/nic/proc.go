// Package nic models the network interface cards of the paper's testbed:
// a standard non-filtering NIC (Intel EEPro 100), the 3Com Embedded
// Firewall (EFW), and the Autonomic Distributed Firewall (ADF).
//
// The filtering cards enforce a fw.RuleSet on an embedded processor with
// a finite cycle budget. Per-packet cost grows with the number of rules
// traversed before the action rule, and VPG traffic additionally pays
// per-byte cryptography. When offered work exceeds the budget the card
// drops packets — the saturation behaviour behind the paper's
// denial-of-service findings. The EFW additionally exhibits the paper's
// Deny-All lockup: flooded with denied packets above ~1,000/s the card
// wedges until the firewall agent is restarted.
//
// The hypothetical NextGen and stateful cards add a per-flow verdict
// cache (flowcache.go), and the stateful card a connection-tracking
// table (package conntrack). Both live in fixed memory, as on a card:
// their slot arrays and their internal/flatidx indexes are allocated
// when the card is built and never grow, however hard a flood churns
// them.
package nic

import (
	"fmt"
	"strings"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
	"barbican/internal/sim"
)

// DefaultQueuePackets is the default descriptor-ring depth of the
// modeled cards.
const DefaultQueuePackets = 128

// Processor models an embedded packet processor with a finite budget of
// abstract cost units per second and a fixed-size descriptor ring.
//
// The ring is bounded in *packets*, as real NIC DMA rings are, so the
// time depth of the buffer scales with per-packet cost: a card grinding
// through a 64-rule policy buffers several milliseconds of work, while
// the same ring holds far less time at one rule. That property is what
// lets TCP ride a slow card smoothly and still collapse under floods.
//
// The ring is a single server in FIFO order, so its completion times
// never decrease. Its drain events and the card's completion callbacks
// for the same packets therefore go on one sim.Lane, sized once for
// two events per ring slot (no ring on a wire-speed processor, whose
// completions are immediate): under a flood that keeps the ring full,
// the kernel's heap holds one of them rather than all of them.
//
// Charge prices a packet by the processor's Profile and records it in
// the processor's always-on cost account, which AppendCostSamples
// renders to stacks that sum to UnitsDone.
type Processor struct {
	kernel    *sim.Kernel
	maxQueue  int
	queued    int
	busyUntil time.Duration

	admitted  uint64
	unitsDone float64
	rx, tx    costAccount

	// drainFn is the precomputed completion callback, scheduled on lane
	// through the kernel's pooled-event path so admitting work allocates
	// nothing.
	drainFn func(any)
	lane    *sim.Lane

	profile Profile // CapacityUnits <= 0 means infinitely fast

	// rules is the last rule set Reserve saw, and stale reports that a
	// packet had walked or matched a rule before it came: the account's
	// rule indexes then span more than one rule set.
	rules *fw.RuleSet
	stale bool
}

// NewProcessor creates a processor priced by prof. Its CapacityUnits
// <= 0 models a wire-speed (non-filtering) data path; MaxQueue bounds
// the descriptor ring (0 defaults to DefaultQueuePackets).
func NewProcessor(k *sim.Kernel, prof Profile) *Processor {
	maxQueue := prof.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultQueuePackets
	}
	laneSize := 0
	if prof.CapacityUnits > 0 {
		laneSize = 2 * maxQueue
	}
	p := &Processor{kernel: k, profile: prof, maxQueue: maxQueue, lane: k.NewLane(laneSize)}
	p.Reserve(nil)
	p.drainFn = func(any) {
		if p.queued > 0 {
			p.queued--
		}
	}
	return p
}

// admit offers work of the given cost. It returns the virtual time at
// which the work completes and whether the work was accepted; rejected
// work models a packet dropped off a full ring by a saturated card.
// Packets are charged through Charge, which records what admit
// accepts.
//
//barbican:noalloc
func (p *Processor) admit(cost float64) (time.Duration, bool) {
	now := p.kernel.Now()
	if p.profile.CapacityUnits <= 0 {
		p.admitted++
		return now, true
	}
	if p.queued >= p.maxQueue {
		return 0, false
	}
	work := time.Duration(cost / p.profile.CapacityUnits * float64(time.Second))
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + work
	p.queued++
	p.admitted++
	p.unitsDone += cost
	p.lane.AtCall(p.busyUntil, p.drainFn, nil)
	return p.busyUntil, true
}

// Charge prices one packet's work by the processor's profile (base,
// the match by path, crypto for cryptoBytes) plus the conntrack share
// ctCost, and offers it to the ring. An admitted packet is recorded in
// the cost account under dir with its 1-based matched rule index.
//
//barbican:noalloc
func (p *Processor) Charge(dir fw.Direction, path MatchPath, traversed, index, cryptoBytes int, ctCost float64) (time.Duration, bool) {
	base, match, crypto := p.profile.CostPartsPath(path, traversed, cryptoBytes)
	at, ok := p.admit(base + match + crypto + ctCost)
	if ok {
		a := &p.tx
		if dir == fw.In {
			a = &p.rx
		}
		a.record(path, traversed, index, base, ctCost, crypto)
	}
	return at, ok
}

// costAccount tallies one direction (rx or tx) of the packets a
// processor admitted, by cost phase. All fields are exact sums.
type costAccount struct {
	packets, cacheHits, ctPkts, cryptoPkts uint64
	base, ct, crypto                       float64 // units
	// walks[t] counts MatchWalk packets whose verdict came after t
	// rules, so rule i was examined by Σ_{t≥i} walks[t]; hits[i] counts
	// packets matched at 1-based rule i, hits[0] the default action.
	walks, hits []uint64
}

// record tallies one admitted packet. walks and hits already fit the
// rule set (Reserve), so recording never allocates.
//
//barbican:noalloc
func (a *costAccount) record(path MatchPath, traversed, index int, base, ct, crypto float64) {
	a.packets++
	a.base += base
	switch path {
	case MatchWalk:
		a.walks[traversed]++
	case MatchCacheHit:
		a.cacheHits++
	case MatchNone, NumMatchPaths:
	}
	if ct > 0 {
		a.ct += ct
		a.ctPkts++
	}
	if crypto > 0 {
		a.crypto += crypto
		a.cryptoPkts++
	}
	a.hits[index]++
}

// Reserve sizes the cost account for rs (nil: no policy) before rs is
// installed, and remembers rs for labelling. It only grows, so what a
// deeper earlier policy recorded stays.
func (p *Processor) Reserve(rs *fw.RuleSet) {
	if rs != p.rules {
		p.rules, p.stale = rs, p.rx.ruled() || p.tx.ruled()
	}
	n := 1
	if rs != nil {
		n += rs.Len()
	}
	for _, a := range []*costAccount{&p.rx, &p.tx} {
		if grow := n - len(a.walks); grow > 0 {
			a.walks = append(a.walks, make([]uint64, grow)...)
			a.hits = append(a.hits, make([]uint64, grow)...)
		}
	}
}

// ruled reports whether any packet walked or matched a rule.
func (a *costAccount) ruled() bool {
	for i := 1; i < len(a.walks); i++ {
		if a.walks[i] > 0 || a.hits[i] > 0 {
			return true
		}
	}
	return false
}

// AppendCostSamples renders the cost account into d, which must use
// profile.CostSampleTypes, as root→leaf stacks
//
//	<host> (<profile>) ; rx|tx ; phase [; rule NNN[: text] | compiled lookup | cache hit | default]
//
// A rule frame carries the text of the finally installed rule set only
// when every packet that walked or matched a rule did so under that
// set; after a mid-run policy change it is a bare index. A walk-priced
// match gets a frame per rule examined, a compiled lookup or cache hit
// one flat frame, and the units sum to UnitsDone up to rounding each
// sample. Only exercised frames appear.
func (p *Processor) AppendCostSamples(d *profile.Data, host string) {
	card := strings.ReplaceAll(fmt.Sprintf("%s (%s)", host, p.profile.Name), ";", ",")
	// Semicolons join frames in summaries and diffs, so no frame holds one.
	ruleFrame := func(i int) string {
		label := fmt.Sprintf("rule %03d", i)
		if rs := p.rules; rs != nil && !p.stale && i <= rs.Len() {
			label += ": " + rs.Rule(i).String()
		}
		return strings.ReplaceAll(label, ";", ",")
	}
	match := profile.PhaseMatch.String()
	for _, side := range []struct {
		dir    string
		a      *costAccount
		crypto profile.Phase
	}{{"rx", &p.rx, profile.PhaseCryptoOpen}, {"tx", &p.tx, profile.PhaseCryptoSeal}} {
		a := side.a
		if a.packets == 0 {
			continue
		}
		add := func(units float64, n uint64, frames ...string) {
			d.Add(append([]string{card, side.dir}, frames...), int64(units+0.5), int64(n))
		}
		add(a.base, a.packets, profile.PhaseParse.String())
		// examined[i] = Σ_{t≥i} walks[t]; examined[0] counts every match.
		examined := make([]uint64, len(a.walks))
		for t, sum := len(a.walks)-1, uint64(0); t >= 0; t-- {
			sum += a.walks[t]
			examined[t] = sum
		}
		switch {
		case p.profile.CompiledMatch && examined[0] > 0:
			add(p.profile.CompiledLookupCost*float64(examined[0]), examined[0], match, "compiled lookup")
		case !p.profile.CompiledMatch:
			for i := 1; i < len(examined); i++ {
				if examined[i] > 0 {
					add(p.profile.PerRuleCost*float64(examined[i]), examined[i], match, ruleFrame(i))
				}
			}
		}
		if a.cacheHits > 0 {
			add(p.profile.CacheHitCost*float64(a.cacheHits), a.cacheHits, match, "cache hit")
		}
		if a.ctPkts > 0 {
			add(a.ct, a.ctPkts, profile.PhaseConntrack.String())
		}
		if a.crypto > 0 {
			add(a.crypto, a.cryptoPkts, side.crypto.String())
		}
		for i, hits := range a.hits {
			if hits == 0 {
				continue
			}
			frame := "default"
			if i > 0 {
				frame = ruleFrame(i)
			}
			add(0, hits, profile.PhaseVerdict.String(), frame)
		}
	}
}

// Backlog returns the queued work, in time units.
func (p *Processor) Backlog() time.Duration {
	b := p.busyUntil - p.kernel.Now()
	if b < 0 {
		return 0
	}
	return b
}

// cpuExhaustedBacklog separates the two overload drop reasons: when
// the processor has at least this much queued work at the moment the
// ring rejects a packet, it is saturated (cpu-exhausted, the paper's
// flood-collapse regime); below it the ring filled transiently
// (queue-overflow burst).
const cpuExhaustedBacklog = time.Millisecond

// OverloadReason classifies a rejection by Charge.
func (p *Processor) OverloadReason() tracing.DropReason {
	if p.Backlog() >= cpuExhaustedBacklog {
		return tracing.DropCPUExhausted
	}
	return tracing.DropQueueOverflow
}

// Queued returns the current ring occupancy.
func (p *Processor) Queued() int { return p.queued }

// Admitted returns how many work items were accepted.
func (p *Processor) Admitted() uint64 { return p.admitted }

// UnitsDone returns the total cost units accepted.
func (p *Processor) UnitsDone() float64 { return p.unitsDone }

// Capacity returns the processor capacity in units/s (0 = infinite).
func (p *Processor) Capacity() float64 { return p.profile.CapacityUnits }
