// Package tracing provides a virtual-time packet-lifecycle tracer for
// the simulator: sampled packets carry a trace ID through the full
// path (NIC egress → link → switch → NIC ingress → firewall walk →
// VPG crypto → stack → app) and every stage records spans or instant
// events against that ID in simulated time.
//
// The tracer is deliberately dumb and deterministic:
//
//   - Sampling is counter-based (every Nth Take() call samples), not
//     random, so a given scenario produces the same traces on every
//     run and under any -parallel setting.
//   - All bookkeeping happens on the single simulation goroutine; no
//     locks, no channels.
//   - A nil *Tracer is the disabled state. Hot-path call sites guard
//     with a nil check and a TraceID != 0 check, so the disabled cost
//     is one predictable branch and the instrumented binaries keep
//     their 0 allocs/op contract on the rx fast path.
//
// Traces export as Chrome/Perfetto trace_event JSON (WritePerfetto),
// which carries every span's stage, duration, rule attribution, note
// and drop reason.
package tracing

import (
	"time"

	"barbican/internal/sim"
)

// Stage identifies where in the packet pipeline a span or event was
// recorded.
type Stage uint8

const (
	StageNICTx  Stage = iota + 1 // egress policy walk + card processor
	StageLink                    // wire: queueing + serialization + propagation
	StageSwitch                  // store-and-forward switch latency
	StageNICRx                   // ingress policy walk + card processor
	StageFW                      // firewall rule walk (instant, with attribution)
	StageVPG                     // VPG seal/open crypto (instant)
	StageStack                   // host IP stack dispatch
	StageApp                     // socket/connection delivery
)

var stageNames = [...]string{
	StageNICTx:  "nic.tx",
	StageLink:   "link",
	StageSwitch: "switch",
	StageNICRx:  "nic.rx",
	StageFW:     "fw",
	StageVPG:    "vpg",
	StageStack:  "stack",
	StageApp:    "app",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "stage?"
}

// DropReason is the first-class taxonomy of why a packet died. The
// same enum indexes the NICs' always-on per-reason drop counters and
// annotates sampled traces, so aggregate counters and individual
// traces can never disagree about vocabulary.
type DropReason uint8

const (
	DropNone           DropReason = iota
	DropRuleDeny                  // firewall rule (or default policy) said deny
	DropQueueOverflow             // ingress/egress queue full, processor keeping up
	DropCPUExhausted              // queue full while the card processor is saturated
	DropMalformed                 // unparseable or checksum-bad frame
	DropAgentNotReady             // card locked up / policy agent not ready
	DropAuthFail                  // VPG authentication failure
	DropReplay                    // VPG anti-replay window rejection
	DropNoGroup                   // sealed frame without a matching VPG
	DropOversize                  // frame exceeds link MTU
	DropLinkQueue                 // link transmit queue overflow
	DropFaultLoss                 // fault injection: probabilistic frame loss
	DropLinkDown                  // fault injection: link down / partition window
	DropDegraded                  // NIC in fail-closed degraded mode
	DropStateTableFull            // conntrack table full and posture forbids untracked admit
	DropNoState                   // packet contradicts tracked connection state (ctstate INVALID)

	NumDropReasons // array-sizing sentinel, not a reason
)

var dropNames = [...]string{
	DropNone:           "none",
	DropRuleDeny:       "rule-deny",
	DropQueueOverflow:  "queue-overflow",
	DropCPUExhausted:   "cpu-exhausted",
	DropMalformed:      "malformed",
	DropAgentNotReady:  "agent-not-ready",
	DropAuthFail:       "auth-fail",
	DropReplay:         "replay",
	DropNoGroup:        "no-group",
	DropOversize:       "oversize",
	DropLinkQueue:      "link-queue",
	DropFaultLoss:      "fault-loss",
	DropLinkDown:       "link-down",
	DropDegraded:       "degraded",
	DropStateTableFull: "state-table-full",
	DropNoState:        "no-state",
}

func (r DropReason) String() string {
	if int(r) < len(dropNames) && dropNames[r] != "" {
		return dropNames[r]
	}
	return "drop?"
}

// DropReasons lists every real reason (excludes DropNone), in enum
// order, for metric registration and export loops.
func DropReasons() []DropReason {
	out := make([]DropReason, 0, NumDropReasons-1)
	for r := DropRuleDeny; r < NumDropReasons; r++ {
		out = append(out, r)
	}
	return out
}

// Span is one recorded stage of a packet's life. Instant events have
// End == Start. Rule/Traversed carry firewall attribution on StageFW
// spans; Drop marks the span that killed the packet.
type Span struct {
	Stage     Stage
	Start     time.Duration
	End       time.Duration
	Note      string
	Rule      int // 1-based matched rule index, 0 = default action
	Traversed int // rules walked before the verdict
	Drop      DropReason
}

// PacketTrace is the full recorded life of one sampled packet.
type PacketTrace struct {
	ID    uint64
	Desc  string // packet summary, e.g. "udp 10.0.0.66:4444 > 10.0.0.2:7"
	Start time.Duration
	Spans []Span

	// Terminal disposition, filled by Drop or Finish.
	Done    bool
	Dropped DropReason // DropNone when delivered (or still in flight)
	End     time.Duration
	Final   string // human note, e.g. "udp delivered :5001" or "drop rule-deny"

	// Last firewall attribution seen, mirrored here for exports.
	RuleIndex int
	Traversed int
}

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples one packet in every N Take() calls.
	// Values <= 0 mean DefaultSampleEvery.
	SampleEvery int
}

const (
	// DefaultSampleEvery is the default 1-in-N sampling rate.
	DefaultSampleEvery = 64
	// Limit caps retained traces; when full, the oldest trace is
	// evicted (counted in Evicted).
	Limit = 4096
)

// Tracer records sampled packet lifecycles in virtual time. All
// methods other than New are safe on traces the tracer does not know
// (unknown or zero IDs are ignored), but NOT on a nil receiver: call
// sites must nil-check, which is what keeps the disabled hot path
// free of any tracing code beyond one branch.
type Tracer struct {
	kernel *sim.Kernel
	every  uint64

	seen    uint64 // Take() calls
	sampled uint64 // Take() calls that returned true
	evicted uint64 // traces dropped to honor limit

	nextID uint64
	byID   map[uint64]*PacketTrace
	order  []*PacketTrace
}

// New creates a tracer bound to a simulation kernel's clock.
func New(k *sim.Kernel, opt Options) *Tracer {
	if opt.SampleEvery <= 0 {
		opt.SampleEvery = DefaultSampleEvery
	}
	return &Tracer{
		kernel: k,
		every:  uint64(opt.SampleEvery),
		byID:   make(map[uint64]*PacketTrace),
	}
}

// SampleEvery reports the configured 1-in-N sampling rate.
func (t *Tracer) SampleEvery() int { return int(t.every) }

// Take makes the deterministic sampling decision for one packet:
// every call increments the seen counter and every Nth call returns
// true. Callers that get true should follow with Begin.
func (t *Tracer) Take() bool {
	t.seen++
	if t.seen%t.every != 0 {
		return false
	}
	t.sampled++
	return true
}

// Begin starts a new trace and returns its nonzero ID. The caller
// builds desc only after a positive Take, so unsampled packets never
// pay for string formatting.
func (t *Tracer) Begin(desc string) uint64 {
	t.nextID++
	id := t.nextID
	pt := &PacketTrace{ID: id, Desc: desc, Start: t.kernel.Now()}
	if len(t.order) >= Limit {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, old.ID)
		t.evicted++
	}
	t.byID[id] = pt
	t.order = append(t.order, pt)
	return id
}

// get resolves an ID; zero and evicted IDs return nil.
func (t *Tracer) get(id uint64) *PacketTrace {
	if id == 0 {
		return nil
	}
	return t.byID[id]
}

// Span records a stage with explicit enter/exit virtual timestamps
// (the NIC and link know their completion times at admission).
func (t *Tracer) Span(id uint64, st Stage, start, end time.Duration) {
	pt := t.get(id)
	if pt == nil {
		return
	}
	pt.Spans = append(pt.Spans, Span{Stage: st, Start: start, End: end})
}

// Point records an instant event at the current virtual time.
func (t *Tracer) Point(id uint64, st Stage, note string) {
	pt := t.get(id)
	if pt == nil {
		return
	}
	now := t.kernel.Now()
	pt.Spans = append(pt.Spans, Span{Stage: st, Start: now, End: now, Note: note})
}

// RuleWalk records firewall attribution: the 1-based matched rule
// index (0 = default action), the number of rules traversed, and the
// verdict, as an instant event at the current virtual time.
func (t *Tracer) RuleWalk(id uint64, index, traversed int, action string) {
	pt := t.get(id)
	if pt == nil {
		return
	}
	now := t.kernel.Now()
	pt.Spans = append(pt.Spans, Span{
		Stage: StageFW, Start: now, End: now,
		Note: action, Rule: index, Traversed: traversed,
	})
	pt.RuleIndex = index
	pt.Traversed = traversed
}

// Drop terminates a trace with a reason from the taxonomy.
func (t *Tracer) Drop(id uint64, st Stage, r DropReason) {
	pt := t.get(id)
	if pt == nil || pt.Done {
		return
	}
	now := t.kernel.Now()
	pt.Spans = append(pt.Spans, Span{Stage: st, Start: now, End: now, Drop: r})
	pt.Done = true
	pt.Dropped = r
	pt.End = now
	pt.Final = "drop " + r.String()
}

// Finish terminates a trace as delivered (or otherwise consumed)
// with a human-readable note.
func (t *Tracer) Finish(id uint64, st Stage, note string) {
	pt := t.get(id)
	if pt == nil || pt.Done {
		return
	}
	now := t.kernel.Now()
	pt.Spans = append(pt.Spans, Span{Stage: st, Start: now, End: now, Note: note})
	pt.Done = true
	pt.End = now
	pt.Final = note
}

// Traces returns retained traces in begin order. The slice is the
// tracer's own; callers must not mutate it.
func (t *Tracer) Traces() []*PacketTrace { return t.order }

// Seen reports total Take() calls (sampling candidates).
func (t *Tracer) Seen() uint64 { return t.seen }

// Sampled reports how many candidates were sampled.
func (t *Tracer) Sampled() uint64 { return t.sampled }

// Evicted reports traces discarded to honor the retention limit.
func (t *Tracer) Evicted() uint64 { return t.evicted }
