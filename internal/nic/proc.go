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
	"time"

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
type Processor struct {
	kernel    *sim.Kernel
	capacity  float64 // units per second; <= 0 means infinitely fast
	maxQueue  int
	queued    int
	busyUntil time.Duration

	admitted  uint64
	unitsDone float64

	// drainFn is the precomputed completion callback, scheduled on lane
	// through the kernel's pooled-event path so admitting work allocates
	// nothing.
	drainFn func(any)
	lane    *sim.Lane
}

// NewProcessor creates a processor. capacity <= 0 models a wire-speed
// (non-filtering) data path; maxQueue bounds the descriptor ring (0
// defaults to DefaultQueuePackets).
func NewProcessor(k *sim.Kernel, capacity float64, maxQueue int) *Processor {
	if maxQueue <= 0 {
		maxQueue = DefaultQueuePackets
	}
	laneSize := 0
	if capacity > 0 {
		laneSize = 2 * maxQueue
	}
	p := &Processor{kernel: k, capacity: capacity, maxQueue: maxQueue, lane: k.NewLane(laneSize)}
	p.drainFn = func(any) {
		if p.queued > 0 {
			p.queued--
		}
	}
	return p
}

// Admit offers work of the given cost. It returns the virtual time at
// which the work completes and whether the work was accepted; rejected
// work models a packet dropped off a full ring by a saturated card.
//
//barbican:noalloc
func (p *Processor) Admit(cost float64) (time.Duration, bool) {
	now := p.kernel.Now()
	if p.capacity <= 0 {
		p.admitted++
		return now, true
	}
	if p.queued >= p.maxQueue {
		return 0, false
	}
	work := time.Duration(cost / p.capacity * float64(time.Second))
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

// OverloadReason classifies a rejection by Admit.
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
func (p *Processor) Capacity() float64 { return p.capacity }
