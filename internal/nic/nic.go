package nic

import (
	"fmt"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic/conntrack"
	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/vpg"
)

// Stats counts per-card activity. Every dropped packet is counted
// exactly once, in RxDrops or TxDrops under its tracing.DropReason.
type Stats struct {
	RxFrames   uint64 // frames addressed to this card
	RxAllowed  uint64
	TxRequests uint64
	TxAllowed  uint64

	// Per-reason drop counters by direction, indexed by
	// tracing.DropReason; PublishMetrics exports each entry as one
	// nic_drops_total{dir,reason} series.
	RxDrops [tracing.NumDropReasons]uint64
	TxDrops [tracing.NumDropReasons]uint64

	Sealed  uint64
	Opened  uint64
	Lockups uint64

	// Degraded-episode activity (all zero on a card never degraded).
	DegradedEntries uint64 // transitions into StateDegraded
	WatchdogResets  uint64 // watchdog recoveries back to healthy
	DegradedPass    uint64 // frames passed unfiltered fail-open
}

type replayKey struct {
	group  string
	sender packet.IP
}

// NIC is a simulated network interface card, optionally enforcing a
// firewall policy on its embedded processor.
type NIC struct {
	kernel  *sim.Kernel
	mac     packet.MAC
	profile Profile
	proc    *Processor
	ep      *link.Endpoint
	deliver func(*packet.Frame)
	// frames is the link's FramePool: the card takes every frame it
	// sends from it and releases every frame it drops or has delivered.
	frames *packet.FramePool

	rules   *fw.RuleSet
	groups  map[string]*vpg.Group
	sealers map[string]*vpg.Sealer
	replay  map[replayKey]*vpg.ReplayWindow

	// fcache is the per-flow verdict cache of FlowCacheSize profiles
	// (nil when the profile has none). setRules invalidates it on every
	// policy change — never assign n.rules directly.
	fcache *flowCache

	// ct is the connection-tracking table (nil on stateless profiles),
	// consulted whenever the installed policy carries state matchers.
	// Assigned only through setConntrack — cached flow verdicts embed
	// the classifications the current table produced, so a table swap
	// must invalidate the cache with it. stateRecovery decides what
	// happens to tracked state when enforcement returns after the
	// current degraded episode (see degraded.go).
	ct            *conntrack.Table
	stateRecovery StateRecovery

	locked      bool
	winStart    time.Duration
	deniedInWin int
	ipID        uint16

	// failMode is the current degraded episode's posture (see
	// degraded.go); FailModeNone while the card is healthy.
	failMode FailMode

	// Precomputed hot-path callbacks and the pending-ingress freelist:
	// together with the kernel's pooled events they make the steady-state
	// per-packet paths allocation-free.
	txFn        func(any)
	finishFn    func(any)
	ingressFree []*pendingIngress

	// openBuf and openFrame are the card's one cleartext buffer and
	// frame for opened VPG frames. finishIngress lends them to deliver
	// for the length of the call; openLent is set while they are out.
	openBuf   []byte
	openFrame packet.Frame
	openLent  bool

	mgmtPeer packet.IP
	mgmtPort uint16

	stats Stats

	// Optional packet-lifecycle tracer (nil = disabled, the hot-path
	// cost is a nil check).
	tracer *tracing.Tracer

	// Optional cost-domain profiler (nil = disabled, hot-path cost is
	// a nil check). Recording happens on every successful processor
	// admission, so the profiler's unit totals reconcile exactly with
	// the processor's UnitsDone.
	prof *profile.CardProfiler
}

// New creates a card with the given hardware profile, attached to one end
// of a link. Frames arriving on the link flow through the card's ingress
// path; the host receives surviving frames via the handler registered
// with SetDeliver.
func New(k *sim.Kernel, mac packet.MAC, profile Profile, ep *link.Endpoint) *NIC {
	n := &NIC{
		kernel:  k,
		mac:     mac,
		profile: profile,
		proc:    NewProcessor(k, profile.CapacityUnits, profile.MaxQueue),
		ep:      ep,
		groups:  make(map[string]*vpg.Group),
		sealers: make(map[string]*vpg.Sealer),
		replay:  make(map[replayKey]*vpg.ReplayWindow),
		fcache:  newFlowCache(profile.FlowCacheSize),
		frames:  ep.Frames(),
	}
	n.txFn = n.transmit
	n.finishFn = n.finishPending
	if profile.ConntrackEntries > 0 {
		// The eviction stream's seed comes from the kernel's seeded
		// RNG, so a run is reproducible from the experiment seed alone.
		n.setConntrack(conntrack.New(conntrack.Config{
			Cap:    profile.ConntrackEntries,
			Policy: profile.ConntrackEvict,
			Seed:   k.Rand().Int63(),
		}))
	}
	ep.Attach(n.handleFrame)
	return n
}

// pendingIngress carries one admitted ingress frame from policy
// evaluation to processor completion. Instances are recycled through
// the card's freelist.
type pendingIngress struct {
	f       *packet.Frame
	s       packet.Summary
	verdict fw.Verdict
}

// finishPending unwraps a recycled pendingIngress and completes the
// admitted frame. On the per-packet hot path (BenchmarkRxPath).
//
//barbican:noalloc
func (n *NIC) finishPending(x any) {
	pi := x.(*pendingIngress)
	f, s, verdict := pi.f, pi.s, pi.verdict
	pi.f, pi.verdict = nil, fw.Verdict{}
	n.ingressFree = append(n.ingressFree, pi)
	n.finishIngress(f, s, verdict)
}

// transmit puts a frame the processor has finished on the wire, unless
// the card locked up meanwhile: a wedged card discards it. On the
// per-packet hot path (BenchmarkFramePath).
//
//barbican:noalloc
func (n *NIC) transmit(x any) {
	f := x.(*packet.Frame)
	if n.locked {
		n.frames.Put(f)
		return
	}
	n.ep.Send(f)
}

// MAC returns the card's hardware address.
func (n *NIC) MAC() packet.MAC { return n.mac }

// Endpoint returns the card's link attachment, e.g. for passive taps
// (see internal/trace).
func (n *NIC) Endpoint() *link.Endpoint { return n.ep }

// Profile returns the card's hardware profile.
func (n *NIC) Profile() Profile { return n.profile }

// Stats returns a snapshot of the card's counters.
func (n *NIC) Stats() Stats { return n.stats }

// Backlog returns the embedded processor's queued work, expressed as
// the time it will take to drain at current capacity.
func (n *NIC) Backlog() time.Duration { return n.proc.Backlog() }

// QueueDepth returns the processor's descriptor-ring occupancy.
func (n *NIC) QueueDepth() int { return n.proc.Queued() }

// SetTracer attaches (or with nil detaches) a packet-lifecycle
// tracer. The card samples egress packets (Send) and
// records spans for frames whose TraceID is already set.
func (n *NIC) SetTracer(tr *tracing.Tracer) { n.tracer = tr }

// SetProfiler attaches (or with nil detaches) a cost-domain profiler.
// The card fills in its device parameters and a lazy rule-label hook
// that reads whatever policy is installed at export time.
func (n *NIC) SetProfiler(cp *profile.CardProfiler) {
	n.prof = cp
	if cp == nil {
		return
	}
	cp.Device = n.profile.Name
	cp.PerRule = n.profile.PerRuleCost
	cp.RuleText = func(i int) string {
		if n.rules == nil || i < 1 || i > n.rules.Len() {
			return ""
		}
		return n.rules.Rule(i).String()
	}
}

// Profiler returns the attached cost-domain profiler (nil when
// profiling is off).
func (n *NIC) Profiler() *profile.CardProfiler { return n.prof }

// DropCounts returns the per-reason ingress and egress drop counters,
// indexed by tracing.DropReason.
func (n *NIC) DropCounts() (rx, tx [tracing.NumDropReasons]uint64) {
	return n.stats.RxDrops, n.stats.TxDrops
}

// TotalDrops sums every per-reason drop counter, both directions.
func (n *NIC) TotalDrops() uint64 {
	var total uint64
	for r := range n.stats.RxDrops {
		total += n.stats.RxDrops[r] + n.stats.TxDrops[r]
	}
	return total
}

// drop counts one dropped packet under its direction and reason and,
// when it is traced (tid != 0), ends its trace at stage. It is the one
// place a card counts a drop.
//
//barbican:noalloc
func (n *NIC) drop(dir fw.Direction, stage tracing.Stage, reason tracing.DropReason, tid uint64) {
	if dir == fw.In {
		n.stats.RxDrops[reason]++
	} else {
		n.stats.TxDrops[reason]++
	}
	if tid != 0 {
		n.tracer.Drop(tid, stage, reason)
	}
}

// cardStage is the trace stage of the card's own work in direction dir.
func cardStage(dir fw.Direction) tracing.Stage {
	if dir == fw.In {
		return tracing.StageNICRx
	}
	return tracing.StageNICTx
}

// SetDeliver registers the host-side receive handler. The card owns
// every frame it delivers, and the frame and every byte of its payload
// are valid only until fn returns: a plain frame goes back to the
// testbed's FramePool then, and an opened VPG frame lives in a buffer
// the card reuses for the next one. A handler copies whatever it keeps.
func (n *NIC) SetDeliver(fn func(*packet.Frame)) { n.deliver = fn }

// InstallRuleSet installs (or, with nil, removes) the enforced policy.
// In the real systems this is done by the firewall agent on behalf of the
// central policy server; it is the card's one install path.
func (n *NIC) InstallRuleSet(rs *fw.RuleSet) { n.setRules(rs) }

// setRules makes rs the active enforced policy. Every assignment of the
// active rule set funnels through here so the flow cache never serves a
// verdict produced under a previous policy: any install invalidates the
// whole cache. The matcher belongs to the rule set (fw.RuleSet.Match), so
// a re-installed policy reuses the one it compiled before.
func (n *NIC) setRules(rs *fw.RuleSet) {
	n.rules = rs
	n.invalidateFlowCache()
}

// invalidateFlowCache drops every cached flow verdict (no-op without a
// cache). Called on policy changes and degraded-episode transitions.
func (n *NIC) invalidateFlowCache() {
	if n.fcache != nil {
		n.fcache.invalidate()
	}
}

// FlowCacheStats returns a snapshot of the per-flow verdict cache's
// counters (all zero when the profile has no cache).
func (n *NIC) FlowCacheStats() FlowCacheStats {
	if n.fcache == nil {
		return FlowCacheStats{}
	}
	return n.fcache.stats()
}

// setConntrack makes t the card's connection-tracking table. Every
// assignment of the table funnels through here so the swap invalidates
// the flow cache with it: cached verdicts are keyed by the conn-state
// classification the old table produced, and a different table (or
// none) can classify the same flow differently.
func (n *NIC) setConntrack(t *conntrack.Table) {
	n.ct = t
	n.invalidateFlowCache()
}

// Conntrack returns the card's connection-tracking table (nil on
// stateless profiles). Callers may read stats or Peek; mutating it
// outside the ingress/egress paths voids determinism.
func (n *NIC) Conntrack() *conntrack.Table { return n.ct }

// ConntrackStats returns a snapshot of the state table's counters
// (zero when the profile has no table).
func (n *NIC) ConntrackStats() conntrack.Stats {
	if n.ct == nil {
		return conntrack.Stats{}
	}
	return n.ct.Stats()
}

// classifyConn runs the conntrack classification for a policy-subject
// packet, returning the state its rules match on plus the lookup cost.
// Stateless profiles, stateless policies, and sealed envelopes (whose
// transport header the card cannot see) skip the table entirely —
// StateNone, zero cost, byte-identical to the pre-conntrack card.
//
//barbican:noalloc
func (n *NIC) classifyConn(s packet.Summary) (fw.ConnState, float64) {
	if n.ct == nil || s.Sealed || !n.rules.Stateful() {
		return fw.StateNone, 0
	}
	return n.ct.Classify(s, n.kernel.Now()), n.profile.ConntrackLookupCost
}

// commitConn records an allowed new connection in the state table and
// returns the insert cost plus whether the packet must instead be
// dropped because the table is full: the card admits no connection it
// cannot track.
//
//barbican:noalloc
func (n *NIC) commitConn(s packet.Summary, cs fw.ConnState) (cost float64, fullDrop bool) {
	if cs == fw.StateNone {
		return 0, false
	}
	switch n.ct.Commit(s, n.kernel.Now()) {
	case conntrack.CommitCreated, conntrack.CommitEvicted:
		return n.profile.ConntrackInsertCost, false
	case conntrack.CommitFull:
		return n.profile.ConntrackInsertCost, true
	case conntrack.CommitExisting, conntrack.NumCommitStatuses:
	}
	return 0, false
}

// evalPolicy produces the verdict for a policy-subject packet whose
// conntrack classification is cs (StateNone on the stateless path): the
// flow cache first, then the rule set's compiled matcher. Every profile
// takes this path; the profile's cost formula alone decides whether the
// card is charged per rule traversed or one flat lookup. A cache hit
// replays the remembered verdict and applies the same counter updates
// a match would (fw.RuleSet.Record), so per-rule hit metrics and
// attribution stay exact. Callers guarantee n.rules != nil.
//
//barbican:noalloc
func (n *NIC) evalPolicy(s packet.Summary, dir fw.Direction, cs fw.ConnState) (fw.Verdict, MatchPath) {
	if n.fcache != nil {
		if v, ok := n.fcache.lookup(s, dir, cs); ok {
			n.rules.Record(v)
			return v, MatchCacheHit
		}
	}
	v := n.rules.Match(s, dir, cs)
	if n.fcache != nil {
		n.fcache.insert(s, dir, cs, v)
	}
	return v, MatchWalk
}

// RuleSet returns the enforced policy (nil when unfiltered).
func (n *NIC) RuleSet() *fw.RuleSet { return n.rules }

// InstallGroup provisions a VPG on the card for the given local member
// address, enabling it to seal outbound and open inbound group traffic.
func (n *NIC) InstallGroup(g *vpg.Group, local packet.IP) error {
	s, err := vpg.NewSealer(g, local)
	if err != nil {
		return fmt.Errorf("nic: install group %q: %w", g.Name(), err)
	}
	n.groups[g.Name()] = g
	n.sealers[g.Name()] = s
	return nil
}

// SealOverhead returns the worst-case bytes sealing adds to a transport
// segment across the card's installed groups. Host stacks shrink their
// MSS by this amount so sealed frames still fit the MTU.
func (n *NIC) SealOverhead() int {
	max := 0
	for name := range n.groups {
		if o := vpg.Overhead(len(name)); o > max {
			max = o
		}
	}
	return max
}

// SetManagementBypass exempts the firewall-agent control channel from
// policy evaluation: TCP traffic exchanged with peer on the given local
// port bypasses the rule set, mirroring the EFW/ADF's protected policy-
// server channel (a freshly pushed deny-all must not sever the agent).
// The bypass does not survive a lockup: a wedged card passes nothing.
func (n *NIC) SetManagementBypass(peer packet.IP, port uint16) {
	n.mgmtPeer = peer
	n.mgmtPort = port
}

// isManagement reports whether a summary matches the control channel.
func (n *NIC) isManagement(s packet.Summary) bool {
	if n.mgmtPort == 0 || s.Proto != packet.ProtoTCP || !s.HasPorts {
		return false
	}
	return (s.Src == n.mgmtPeer && s.DstPort == n.mgmtPort) ||
		(s.Dst == n.mgmtPeer && s.SrcPort == n.mgmtPort)
}

// Locked reports whether the card is wedged (the EFW Deny-All failure).
func (n *NIC) Locked() bool { return n.locked }

// decision is the policy stage's account of one packet: how its verdict
// was reached and what the embedded processor was charged for it.
type decision struct {
	verdict     fw.Verdict
	path        MatchPath
	cs          fw.ConnState // conntrack classification (StateNone untracked)
	lookup      float64      // conntrack classification cost
	insert      float64      // conntrack entry cost of an allowed new connection
	cryptoBytes int          // VPG bytes sealed or opened
	completeAt  time.Duration
}

// policyStage is the card's per-packet policy work, the same in both
// directions: conntrack classification (an INVALID packet is dropped
// before the rules), the rule match through the flow cache, the
// conntrack commit of an allowed new connection, the VPG crypto the
// verdict implies, and admission of the whole cost to the embedded
// processor. It fills d and reports whether the packet survives; a
// dropped packet is counted once, by reason. exempt marks the management
// channel, which bypasses the policy but still costs the base work.
// Summary and decision travel by pointer: this is the per-packet hot
// path (BenchmarkRxPath), and copying them costs measurably.
//
//barbican:noalloc
func (n *NIC) policyStage(dir fw.Direction, s *packet.Summary, exempt bool, tid uint64, d *decision) bool {
	*d = decision{verdict: fw.Verdict{Action: fw.Allow}}
	stateFull := false
	if n.rules != nil && !exempt {
		// Conntrack sees both directions: the outbound SYN creates the
		// entry the inbound SYN/ACK will be classified against.
		d.cs, d.lookup = n.classifyConn(*s)
		if d.cs == fw.StateInvalid {
			// A packet that contradicts tracked connection state is
			// dropped before rule evaluation — the NIC-offload posture is
			// strict, unlike the host filter where rules may still match
			// INVALID explicitly. The lookup still cost the processor.
			if _, ok := n.admit(dir, tid, MatchNone, 0, 0, 0, d.lookup); ok {
				n.drop(dir, cardStage(dir), tracing.DropNoState, tid)
			}
			return false
		}
		d.verdict, d.path = n.evalPolicy(*s, dir, d.cs)
		if tid != 0 {
			n.tracer.RuleWalk(tid, d.verdict.Index, d.verdict.Traversed, d.verdict.Action.String()) //barbican:allow alloc -- traced-only branch; tid==0 when no tracer is attached
		}
		if d.verdict.Action == fw.Allow {
			// Only allowed packets occupy state-table slots: a denied SYN
			// never consumes conntrack memory (netfilter's conntrack
			// records what filter admits, not what arrives).
			d.insert, stateFull = n.commitConn(*s, d.cs)
		}
	}
	d.cryptoBytes = n.cryptoBytes(dir, s, &d.verdict)
	completeAt, ok := n.admit(dir, tid, d.path, d.verdict.Traversed, d.verdict.Index, d.cryptoBytes, d.lookup+d.insert)
	if !ok {
		return false
	}
	if d.verdict.Action == fw.Deny {
		n.drop(dir, cardStage(dir), tracing.DropRuleDeny, tid)
		if dir == fw.In {
			n.noteDenied()
		}
		return false
	}
	if stateFull {
		// Policy said allow but the state table is full: the
		// connection cannot be tracked, so it is not admitted. The work was already done, hence after admit.
		n.drop(dir, cardStage(dir), tracing.DropStateTableFull, tid)
		return false
	}
	d.completeAt = completeAt
	return true
}

// cryptoBytes is the VPG work verdict v implies for packet s. Egress
// seals the transport segment a VPG rule admitted, envelope included.
// Ingress opens a sealed packet's whole IP length once, at the matching
// VPG rule — the real ADF is lazy. An eager card (ablation ABL2)
// instead trial-decrypts at every candidate VPG rule it traverses, so
// non-matching VPGs above the action pair multiply the crypto cost.
//
//barbican:noalloc
func (n *NIC) cryptoBytes(dir fw.Direction, s *packet.Summary, v *fw.Verdict) int {
	matchedVPG := v.Action == fw.Allow && v.Rule != nil && v.Rule.IsVPG()
	switch {
	case dir == fw.Out && matchedVPG:
		return s.IPLen - packet.IPv4HeaderLen + vpg.Overhead(len(v.Rule.VPG))
	case dir == fw.Out || !s.Sealed:
		return 0
	case n.profile.EagerVPGDecrypt:
		trials := 1
		if n.rules != nil {
			trials = max(trials, n.rules.CountVPGCandidates(fw.In, v.Traversed))
		}
		return trials * s.IPLen
	case matchedVPG:
		return s.IPLen
	}
	return 0
}

// admit charges one packet's work to the embedded processor and records
// it with the profiler; ctCost is the conntrack share. A full descriptor
// ring drops the packet as overload.
//
//barbican:noalloc
func (n *NIC) admit(dir fw.Direction, tid uint64, path MatchPath, traversed, index, cryptoBytes int, ctCost float64) (time.Duration, bool) {
	base, match, crypto := n.profile.CostPartsPath(path, traversed, cryptoBytes)
	completeAt, ok := n.proc.Admit(base + match + crypto + ctCost)
	if !ok {
		n.drop(dir, cardStage(dir), n.proc.OverloadReason(), tid)
		return 0, false
	}
	if n.prof != nil {
		if dir == fw.In {
			n.prof.RecordRx(traversed, index, base, match+ctCost, crypto) //barbican:allow alloc -- profiled-only branch; prof==nil on the contract path
		} else {
			n.prof.RecordTx(traversed, index, base, match+ctCost, crypto) //barbican:allow alloc -- profiled-only branch; prof==nil on the contract path
		}
	}
	return completeAt, true
}

// Send transmits an IP datagram to the given destination MAC, subject to
// the card's egress policy. It reports whether the datagram was accepted
// for transmission. The datagram is copied into a pooled frame; the
// caller keeps d. On the per-packet hot path (BenchmarkFramePath).
//
//barbican:noalloc
func (n *NIC) Send(d *packet.Datagram, dstMAC packet.MAC) bool {
	n.stats.TxRequests++
	if n.locked {
		n.drop(fw.Out, tracing.StageNICTx, tracing.DropAgentNotReady, 0)
		return false
	}
	// Summarize the datagram directly: it is wire-identical to the frame
	// payload marshaled below, and skips a parse of bytes we just built.
	s, err := packet.SummarizeDatagram(d)
	if err != nil {
		n.drop(fw.Out, tracing.StageNICTx, tracing.DropMalformed, 0)
		return false
	}

	// Egress is where every simulated packet first meets a NIC, so the
	// sampling decision lives here; sampled frames carry the trace ID
	// through the rest of the pipeline.
	var tid uint64
	if tr := n.tracer; tr != nil && tr.Take() {
		tid = tr.Begin(s.String()) //barbican:allow alloc -- traced-only branch; no tracer on the contract path
	}

	exempt := n.isManagement(s)
	if n.failMode != FailModeNone {
		if handled, pass := n.degraded(fw.Out, exempt, tid); handled {
			if pass {
				f := n.plainFrame(d, dstMAC)
				f.TraceID = tid
				n.ep.Send(f)
			}
			return pass
		}
	}
	var dec decision
	if !n.policyStage(fw.Out, &s, exempt, tid, &dec) {
		return false
	}

	var frame *packet.Frame
	if r := dec.verdict.Rule; r != nil && r.IsVPG() {
		sealed, ok := n.seal(r.VPG, d, dstMAC)
		if !ok {
			n.drop(fw.Out, tracing.StageVPG, tracing.DropNoGroup, tid)
			return false
		}
		frame = sealed
		if tid != 0 {
			n.tracer.Point(tid, tracing.StageVPG, "sealed "+r.VPG) //barbican:allow alloc -- traced-only branch; no tracer on the contract path
		}
	} else {
		frame = n.plainFrame(d, dstMAC)
	}
	if len(frame.Payload) > packet.MaxPayload {
		n.drop(fw.Out, tracing.StageNICTx, tracing.DropOversize, tid)
		n.frames.Put(frame)
		return false
	}
	n.stats.TxAllowed++
	if tid != 0 {
		frame.TraceID = tid
		n.tracer.Span(tid, tracing.StageNICTx, n.kernel.Now(), dec.completeAt)
	}
	// The frame leaves the card once the embedded processor finishes it.
	n.proc.lane.AtCall(dec.completeAt, n.txFn, frame)
	return true
}

// plainFrame marshals d into a pooled frame addressed to dstMAC.
//
//barbican:noalloc
func (n *NIC) plainFrame(d *packet.Datagram, dstMAC packet.MAC) *packet.Frame {
	f := n.frames.Get(dstMAC, n.mac, packet.EtherTypeIPv4, packet.IPv4HeaderLen+len(d.Payload))
	f.Payload = d.MarshalTo(f.Payload)
	return f
}

// seal wraps the datagram's transport segment in a VPG envelope and
// returns the sealed frame, a pooled one. The envelope is sealed
// straight into the frame's buffer behind room for the outer IPv4
// header, which is written last, once the seal has succeeded.
//
//barbican:noalloc
func (n *NIC) seal(group string, d *packet.Datagram, dstMAC packet.MAC) (*packet.Frame, bool) {
	sealer, ok := n.sealers[group]
	if !ok {
		return nil, false
	}
	f := n.frames.Get(dstMAC, n.mac, packet.EtherTypeVPG, packet.IPv4HeaderLen+len(d.Payload)+vpg.Overhead(len(group)))
	buf, err := sealer.Seal(f.Payload[:packet.IPv4HeaderLen], d.Header.Dst, d.Header.Protocol, d.Payload)
	if err != nil {
		n.frames.Put(f)
		return nil, false
	}
	n.ipID++
	putIPv4Header(buf, d.Header.Src, d.Header.Dst, packet.ProtoVPGEncap, n.ipID)
	n.stats.Sealed++
	f.Payload = buf
	return f, true
}

// handleFrame is the ingress path: MAC filtering (free, in hardware),
// the policy stage on the embedded processor, then VPG opening and
// delivery to the host once the processor is done. The card owns f
// from here on and releases it on every drop and after delivery. On
// the per-packet hot path (BenchmarkRxPath): the untraced steady state
// must not allocate.
//
//barbican:noalloc
func (n *NIC) handleFrame(f *packet.Frame) {
	if f.Dst != n.mac && !f.Dst.IsBroadcast() {
		n.frames.Put(f)
		return
	}
	n.stats.RxFrames++
	tid := f.TraceID
	if n.tracer == nil {
		tid = 0
	}
	if n.locked {
		n.drop(fw.In, tracing.StageNICRx, tracing.DropAgentNotReady, tid)
		n.frames.Put(f)
		return
	}
	s, err := packet.Summarize(f)
	if err != nil {
		n.drop(fw.In, tracing.StageNICRx, tracing.DropMalformed, tid)
		n.frames.Put(f)
		return
	}

	exempt := n.isManagement(s)
	if n.failMode != FailModeNone {
		if handled, pass := n.degraded(fw.In, exempt, tid); handled {
			if pass {
				n.deliverFrame(f)
			} else {
				n.frames.Put(f)
			}
			return
		}
	}
	var d decision
	if !n.policyStage(fw.In, &s, exempt, tid, &d) {
		n.frames.Put(f)
		return
	}
	if tid != 0 {
		n.tracer.Span(tid, tracing.StageNICRx, n.kernel.Now(), d.completeAt)
	}
	var pi *pendingIngress
	if k := len(n.ingressFree); k > 0 {
		pi = n.ingressFree[k-1]
		n.ingressFree[k-1] = nil
		n.ingressFree = n.ingressFree[:k-1]
	} else {
		pi = &pendingIngress{} //barbican:allow alloc -- cold-path freelist refill; steady state recycles
	}
	pi.f, pi.s, pi.verdict = f, s, d.verdict
	n.proc.lane.AtCall(d.completeAt, n.finishFn, pi)
}

// finishIngress runs after the processor's admission delay: VPG opening
// if sealed, then delivery. On the per-packet hot path (BenchmarkRxPath).
//
//barbican:noalloc
func (n *NIC) finishIngress(f *packet.Frame, s packet.Summary, verdict fw.Verdict) {
	tid := f.TraceID
	if n.tracer == nil {
		tid = 0
	}
	if n.locked {
		n.drop(fw.In, tracing.StageNICRx, tracing.DropAgentNotReady, tid)
		n.frames.Put(f)
		return
	}
	if !s.Sealed {
		n.stats.RxAllowed++
		n.deliverFrame(f)
		return
	}
	// The opened frame is the card's own; the sealed one is done with.
	inner, ok := n.open(f, verdict, tid)
	n.frames.Put(f)
	if !ok {
		return
	}
	n.stats.RxAllowed++
	n.openLent = true
	if n.deliver != nil {
		n.deliver(inner)
	}
	n.openLent = false
}

// deliverFrame hands a pooled frame to the host and releases it once
// the host is done with it.
//
//barbican:noalloc
func (n *NIC) deliverFrame(f *packet.Frame) {
	if n.deliver != nil {
		n.deliver(f)
	}
	n.frames.Put(f)
}

// open verifies and decrypts a sealed frame, returning the reconstructed
// cleartext frame. tid is the frame's sampled trace (0 = untraced);
// drop reasons are recorded against it and propagated to the inner
// frame on success. The frame and its buffer belong to the card and are
// reused by the next open, so open panics if deliver re-enters it.
func (n *NIC) open(f *packet.Frame, verdict fw.Verdict, tid uint64) (*packet.Frame, bool) {
	if n.openLent {
		panic("nic: open re-entered while its buffer is lent to deliver")
	}
	outer, err := packet.UnmarshalDatagram(f.Payload)
	if err != nil {
		n.drop(fw.In, tracing.StageVPG, tracing.DropMalformed, tid)
		return nil, false
	}
	name, err := vpg.PeekGroupName(outer.Payload)
	if err != nil {
		n.drop(fw.In, tracing.StageVPG, tracing.DropMalformed, tid)
		return nil, false
	}
	// Policy must have admitted the packet via the VPG rule for this
	// group; sealed traffic admitted any other way is a configuration
	// error and is dropped.
	if verdict.Rule == nil || verdict.Rule.VPG != string(name) {
		if n.rules != nil {
			n.drop(fw.In, tracing.StageVPG, tracing.DropNoGroup, tid)
			return nil, false
		}
	}
	g, ok := n.groups[string(name)]
	if !ok {
		n.drop(fw.In, tracing.StageVPG, tracing.DropNoGroup, tid)
		return nil, false
	}
	// The inner datagram is opened straight into the card's buffer
	// behind room for its IPv4 header, which is written once the
	// transport protocol is known. The buffer is made on the first
	// open and grows only for a larger datagram.
	if need := packet.IPv4HeaderLen + max(len(outer.Payload)-vpg.Overhead(len(name)), 0); cap(n.openBuf) < need {
		n.openBuf = make([]byte, 0, need) //barbican:allow alloc -- first open, or a larger datagram than any before
	}
	proto, buf, seq, err := g.Open(n.openBuf[:packet.IPv4HeaderLen], outer.Header.Src, outer.Header.Dst, outer.Payload)
	if err != nil {
		n.drop(fw.In, tracing.StageVPG, tracing.DropAuthFail, tid)
		return nil, false
	}
	key := replayKey{group: g.Name(), sender: outer.Header.Src}
	w := n.replay[key]
	if w == nil {
		w = &vpg.ReplayWindow{}
		n.replay[key] = w
	}
	if !w.Check(seq) {
		n.drop(fw.In, tracing.StageVPG, tracing.DropReplay, tid)
		return nil, false
	}
	n.stats.Opened++
	if tid != 0 {
		n.tracer.Point(tid, tracing.StageVPG, "opened "+g.Name())
	}
	putIPv4Header(buf, outer.Header.Src, outer.Header.Dst, proto, outer.Header.ID)
	n.openBuf = buf[:0]
	n.openFrame = packet.Frame{Dst: f.Dst, Src: f.Src, Type: packet.EtherTypeIPv4, Payload: buf, TraceID: tid}
	return &n.openFrame, true
}

// putIPv4Header writes the header of a datagram with NewDatagram's
// defaults into the room reserved at the front of b, which holds the
// whole datagram: the header's TotalLen is len(b).
func putIPv4Header(b []byte, src, dst packet.IP, proto packet.Protocol, id uint16) {
	h := packet.NewDatagram(src, dst, proto, id, nil).Header
	h.TotalLen = len(b)
	h.MarshalTo(b[:0])
}

// noteDenied tracks the denied-packet rate for the EFW lockup failure.
func (n *NIC) noteDenied() {
	if n.profile.LockupDeniedPPS <= 0 {
		return
	}
	now := n.kernel.Now()
	if now-n.winStart >= time.Second {
		n.winStart = now
		n.deniedInWin = 0
	}
	n.deniedInWin++
	if n.deniedInWin > n.profile.LockupDeniedPPS {
		n.locked = true
		n.stats.Lockups++
	}
}
