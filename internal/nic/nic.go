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

// Stats counts per-card activity.
type Stats struct {
	RxFrames        uint64 // frames addressed to this card
	RxAllowed       uint64
	RxDenied        uint64
	RxOverloadDrops uint64 // saturated processor
	RxAuthFailures  uint64 // VPG open failures (tamper, non-member, wrong key)
	RxReplayDrops   uint64
	RxNoGroup       uint64 // sealed traffic for a group the card lacks
	RxMalformed     uint64
	RxLockedDrops   uint64

	TxRequests      uint64
	TxAllowed       uint64
	TxDenied        uint64
	TxOverloadDrops uint64
	TxOversize      uint64
	TxNoGroup       uint64
	TxLockedDrops   uint64

	Sealed  uint64
	Opened  uint64
	Lockups uint64

	// Degraded-mode machine activity (all zero while FailModeNone).
	DegradedEntries uint64 // transitions into StateDegraded
	WatchdogResets  uint64 // automatic recoveries to the committed rule set
	UpdatesAborted  uint64 // policy updates declared interrupted
	RxDegradedDrops uint64 // ingress frames dropped fail-closed
	TxDegradedDrops uint64 // egress frames dropped fail-closed
	DegradedPass    uint64 // frames passed unfiltered fail-open

	// Conntrack activity (all zero on stateless profiles/policies).
	RxNoStateDrops     uint64 // ingress ctstate-INVALID drops
	TxNoStateDrops     uint64 // egress ctstate-INVALID drops
	RxStateFullDrops   uint64 // ingress drops: table full, posture closed
	TxStateFullDrops   uint64 // egress drops: table full, posture closed
	StateUntrackedPass uint64 // table full, FailModeOpen: admitted untracked
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

	rules   *fw.RuleSet
	groups  map[string]*vpg.Group
	sealers map[string]*vpg.Sealer
	replay  map[replayKey]*vpg.ReplayWindow

	// Fast-path machinery for CompiledMatch/FlowCacheSize profiles:
	// compiled is the depth-independent matcher for the current rules
	// (nil on linear profiles or without policy), fcache the per-flow
	// verdict cache (nil when the profile has none). Both are kept in
	// sync with rules by setRules — never assign n.rules directly.
	compiled *fw.CompiledSet
	fcache   *flowCache

	// ct is the connection-tracking table (nil on stateless profiles),
	// consulted whenever the installed policy carries state matchers.
	// Assigned only through setConntrack — cached flow verdicts embed
	// the classifications the current table produced, so a table swap
	// must invalidate the cache with it. stateRecovery decides what
	// happens to tracked state when enforcement returns after a
	// degraded episode (see degraded.go).
	ct            *conntrack.Table
	stateRecovery StateRecovery

	locked      bool
	winStart    time.Duration
	deniedInWin int
	ipID        uint16

	// Degraded-mode state machine (see degraded.go). failMode's zero
	// value FailModeNone keeps the machine fully disarmed.
	failMode        FailMode
	degState        DegradedState
	lastCommitted   *fw.RuleSet
	overloadDegrade bool
	updateEv        *sim.Event
	recoverEv       *sim.Event

	// Precomputed hot-path callbacks and the pending-ingress freelist:
	// together with the kernel's pooled events they make the steady-state
	// per-packet paths allocation-free.
	txFn        func(any)
	finishFn    func(any)
	ingressFree []*pendingIngress

	mgmtPeer packet.IP
	mgmtPort uint16

	stats Stats

	// Always-on per-reason drop counters (one array index increment
	// per drop; see internal/obs/tracing.DropReason) and the optional
	// packet-lifecycle tracer (nil = disabled, the hot-path cost is a
	// nil check).
	rxDrops [tracing.NumDropReasons]uint64
	txDrops [tracing.NumDropReasons]uint64
	tracer  *tracing.Tracer

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
	}
	n.txFn = func(x any) {
		if !n.locked {
			n.ep.Send(x.(*packet.Frame))
		}
	}
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
// the time it will take to drain at current capacity. The card enters
// degraded mode when this crosses cpuExhaustedBacklog.
func (n *NIC) Backlog() time.Duration { return n.proc.Backlog() }

// QueueDepth returns the processor's descriptor-ring occupancy.
func (n *NIC) QueueDepth() int { return n.proc.Queued() }

// SetTracer attaches (or with nil detaches) a packet-lifecycle
// tracer. The card samples egress packets (Send/SendRawFrame) and
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
	return n.rxDrops, n.txDrops
}

// TotalDrops sums every per-reason drop counter, both directions.
func (n *NIC) TotalDrops() uint64 {
	var total uint64
	for r := range n.rxDrops {
		total += n.rxDrops[r] + n.txDrops[r]
	}
	return total
}

// cpuExhaustedBacklog separates the two overload drop reasons: when
// the embedded processor has at least this much queued work at the
// moment the descriptor ring rejects a packet, the card is saturated
// (cpu-exhausted, the paper's flood-collapse regime); below it the
// ring filled transiently (queue-overflow burst).
const cpuExhaustedBacklog = time.Millisecond

// overloadReason classifies a processor admission rejection.
func (n *NIC) overloadReason() tracing.DropReason {
	if n.proc.Backlog() >= cpuExhaustedBacklog {
		return tracing.DropCPUExhausted
	}
	return tracing.DropQueueOverflow
}

// SetDeliver registers the host-side receive handler.
func (n *NIC) SetDeliver(fn func(*packet.Frame)) { n.deliver = fn }

// InstallRuleSet installs (or, with nil, removes) the enforced policy.
// In the real systems this is done by the firewall agent on behalf of the
// central policy server. A direct install is a committed policy: it is
// what a degraded card's watchdog reset restores.
func (n *NIC) InstallRuleSet(rs *fw.RuleSet) {
	n.setRules(rs)
	n.lastCommitted = rs
}

// setRules makes rs the active enforced policy. Every assignment of the
// active rule set funnels through here so the compiled matcher stays in
// sync and the flow cache never serves a verdict produced under a
// previous policy: any policy change — commit, degraded-mode
// enforcement swap, watchdog restore — invalidates the whole cache.
func (n *NIC) setRules(rs *fw.RuleSet) {
	n.rules = rs
	switch {
	case rs == nil:
		n.compiled = nil
	case n.profile.CompiledMatch:
		// Recompile only on an actual rule-set change; the watchdog
		// restoring the already-compiled committed policy reuses it.
		if n.compiled == nil || n.compiled.RuleSet() != rs {
			n.compiled = fw.Compile(rs)
		}
	}
	n.invalidateFlowCache()
}

// invalidateFlowCache drops every cached flow verdict (no-op without a
// cache). Called on policy changes and degraded-mode transitions.
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
// dropped because the table is full and the card's posture forbids
// admitting untracked connections (FailModeOpen admits them, counted).
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
		if n.failMode == FailModeOpen {
			n.stats.StateUntrackedPass++
			return n.profile.ConntrackInsertCost, false
		}
		return n.profile.ConntrackInsertCost, true
	case conntrack.CommitExisting, conntrack.NumCommitStatuses:
	}
	return 0, false
}

// evalPolicy produces the verdict for a policy-subject packet whose
// conntrack classification is cs (StateNone on the stateless path): the
// flow cache first, then the compiled matcher when the profile has one,
// otherwise the linear reference walk. A cache hit replays the
// remembered verdict and applies the same counter updates the walk
// would (fw.RuleSet.Record), so per-rule hit metrics and attribution
// stay exact. Callers guarantee n.rules != nil.
//
//barbican:noalloc
func (n *NIC) evalPolicy(s packet.Summary, dir fw.Direction, cs fw.ConnState) (fw.Verdict, MatchPath) {
	if n.fcache != nil {
		if v, ok := n.fcache.lookup(s, dir, cs); ok {
			n.rules.Record(v)
			return v, MatchCacheHit
		}
	}
	var v fw.Verdict
	if n.compiled != nil {
		v = n.compiled.EvalState(s, dir, cs)
	} else {
		v = n.rules.EvalState(s, dir, cs)
	}
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

// RestartAgent models restarting the firewall agent software, which the
// paper found was the only way to restore a wedged card. Installed policy
// and groups survive; queued work is discarded.
func (n *NIC) RestartAgent() {
	n.locked = false
	n.deniedInWin = 0
	n.winStart = n.kernel.Now()
	n.proc.Reset()
	// A restart also clears the degraded machine back to healthy with
	// the committed policy enforced.
	if n.updateEv != nil {
		n.updateEv.Cancel()
		n.updateEv = nil
	}
	if n.recoverEv != nil {
		n.recoverEv.Cancel()
		n.recoverEv = nil
	}
	if n.degState != StateHealthy {
		n.setRules(n.lastCommitted)
		n.degState = StateHealthy
		n.conntrackRecovered()
	}
}

// Send transmits an IP datagram to the given destination MAC, subject to
// the card's egress policy. It reports whether the datagram was accepted
// for transmission.
func (n *NIC) Send(d *packet.Datagram, dstMAC packet.MAC) bool {
	n.stats.TxRequests++
	if n.locked {
		n.stats.TxLockedDrops++
		n.txDrops[tracing.DropAgentNotReady]++
		return false
	}
	// Summarize the datagram directly: it is wire-identical to the frame
	// payload marshaled below, and skips a parse of bytes we just built.
	s, err := packet.SummarizeDatagram(d)
	if err != nil {
		n.txDrops[tracing.DropMalformed]++
		return false
	}

	// Egress is where every simulated packet first meets a NIC, so the
	// sampling decision lives here; sampled frames carry the trace ID
	// through the rest of the pipeline.
	var tid uint64
	tr := n.tracer
	if tr != nil && tr.Take() {
		tid = tr.Begin(s.String())
	}

	if n.degState == StateDegraded {
		if handled, sent := n.degradedEgress(d, dstMAC, s, tid); handled {
			return sent
		}
	}

	verdict := fw.Verdict{Action: fw.Allow}
	path := MatchNone
	cs := fw.StateNone
	var ctCost float64
	stateFull := false
	if n.rules != nil && !n.isManagement(s) {
		// Conntrack sees both directions: the outbound SYN creates the
		// entry the inbound SYN/ACK will be classified against.
		cs, ctCost = n.classifyConn(s)
		if cs == fw.StateInvalid {
			if _, ok := n.proc.Admit(n.profile.CostPath(MatchNone, 0, 0) + ctCost); ok {
				if n.prof != nil {
					base, match, crypto := n.profile.CostPartsPath(MatchNone, 0, 0)
					n.prof.RecordTx(0, 0, base, match+ctCost, crypto)
				}
				n.stats.TxNoStateDrops++
				n.txDrops[tracing.DropNoState]++
				if tid != 0 {
					tr.Drop(tid, tracing.StageNICTx, tracing.DropNoState)
				}
			} else {
				n.stats.TxOverloadDrops++
				reason := n.overloadReason()
				n.txDrops[reason]++
				n.noteOverload(reason)
				if tid != 0 {
					tr.Drop(tid, tracing.StageNICTx, reason)
				}
			}
			return false
		}
		verdict, path = n.evalPolicy(s, fw.Out, cs)
		if tid != 0 {
			tr.RuleWalk(tid, verdict.Index, verdict.Traversed, verdict.Action.String())
		}
		if verdict.Action == fw.Allow {
			insertCost, fullDrop := n.commitConn(s, cs)
			ctCost += insertCost
			stateFull = fullDrop
		}
	}

	cryptoBytes := 0
	sealGroup := ""
	if verdict.Action == fw.Allow && verdict.Rule != nil && verdict.Rule.IsVPG() {
		sealGroup = verdict.Rule.VPG
		cryptoBytes = len(d.Payload) + vpg.Overhead(len(sealGroup))
	}

	completeAt, ok := n.proc.Admit(n.profile.CostPath(path, verdict.Traversed, cryptoBytes) + ctCost)
	if !ok {
		n.stats.TxOverloadDrops++
		reason := n.overloadReason()
		n.txDrops[reason]++
		n.noteOverload(reason)
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, reason)
		}
		return false
	}
	if n.prof != nil {
		base, match, crypto := n.profile.CostPartsPath(path, verdict.Traversed, cryptoBytes)
		n.prof.RecordTx(verdict.Traversed, verdict.Index, base, match+ctCost, crypto)
	}
	if verdict.Action == fw.Deny {
		n.stats.TxDenied++
		n.txDrops[tracing.DropRuleDeny]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, tracing.DropRuleDeny)
		}
		return false
	}
	if stateFull {
		n.stats.TxStateFullDrops++
		n.txDrops[tracing.DropStateTableFull]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, tracing.DropStateTableFull)
		}
		return false
	}

	var frame *packet.Frame
	if sealGroup != "" {
		sealed, ok := n.seal(sealGroup, d, dstMAC)
		if !ok {
			n.txDrops[tracing.DropNoGroup]++
			if tid != 0 {
				tr.Drop(tid, tracing.StageVPG, tracing.DropNoGroup)
			}
			return false
		}
		frame = sealed
		if tid != 0 {
			tr.Point(tid, tracing.StageVPG, "sealed "+sealGroup)
		}
	} else {
		frame = &packet.Frame{Dst: dstMAC, Src: n.mac, Type: packet.EtherTypeIPv4, Payload: d.Marshal()}
	}
	if len(frame.Payload) > packet.MaxPayload {
		n.stats.TxOversize++
		n.txDrops[tracing.DropOversize]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, tracing.DropOversize)
		}
		return false
	}
	n.stats.TxAllowed++
	if tid != 0 {
		frame.TraceID = tid
		tr.Span(tid, tracing.StageNICTx, n.kernel.Now(), completeAt)
	}
	// The frame leaves the card once the embedded processor finishes it.
	n.kernel.AtCall(completeAt, n.txFn, frame)
	return true
}

// SendRawFrame transmits a pre-built frame without policy evaluation or
// sealing — attacker tooling (raw sockets on a non-filtering card). A
// filtering card still charges its base processing cost and honors
// lockup; a standard card passes it straight through.
func (n *NIC) SendRawFrame(f *packet.Frame) bool {
	n.stats.TxRequests++
	var tid uint64
	tr := n.tracer
	if tr != nil && tr.Take() {
		if s, err := packet.Summarize(f); err == nil {
			tid = tr.Begin(s.String())
		} else {
			tid = tr.Begin("raw frame")
		}
	}
	if n.locked {
		n.stats.TxLockedDrops++
		n.txDrops[tracing.DropAgentNotReady]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, tracing.DropAgentNotReady)
		}
		return false
	}
	if n.degState == StateDegraded {
		switch n.failMode {
		case FailModeOpen:
			// Hardware bypass: the frame skips the (degraded) filter
			// processor entirely.
			n.stats.DegradedPass++
			n.stats.TxAllowed++
			if tid != 0 {
				f.TraceID = tid
				tr.Point(tid, tracing.StageNICTx, "degraded fail-open pass")
			}
			n.ep.Send(f)
			return true
		case FailModeClosed:
			n.stats.TxDegradedDrops++
			n.txDrops[tracing.DropDegraded]++
			if tid != 0 {
				tr.Drop(tid, tracing.StageNICTx, tracing.DropDegraded)
			}
			return false
		case FailModeNone, NumFailModes:
			// Unreachable: StateDegraded requires an armed machine.
		}
	}
	completeAt, ok := n.proc.Admit(n.profile.CostPath(MatchNone, 0, 0))
	if !ok {
		n.stats.TxOverloadDrops++
		reason := n.overloadReason()
		n.txDrops[reason]++
		n.noteOverload(reason)
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICTx, reason)
		}
		return false
	}
	if n.prof != nil {
		base, match, crypto := n.profile.CostPartsPath(MatchNone, 0, 0)
		n.prof.RecordTx(0, 0, base, match, crypto)
	}
	n.stats.TxAllowed++
	if tid != 0 {
		f.TraceID = tid
		tr.Span(tid, tracing.StageNICTx, n.kernel.Now(), completeAt)
	}
	n.kernel.AtCall(completeAt, n.txFn, f)
	return true
}

// seal wraps the datagram's transport segment in a VPG envelope and
// returns the sealed frame. The envelope is sealed straight into the
// frame's buffer behind room for the outer IPv4 header, which is
// written last, once the seal has succeeded.
func (n *NIC) seal(group string, d *packet.Datagram, dstMAC packet.MAC) (*packet.Frame, bool) {
	sealer, ok := n.sealers[group]
	if !ok {
		n.stats.TxNoGroup++
		return nil, false
	}
	buf := make([]byte, packet.IPv4HeaderLen, packet.IPv4HeaderLen+len(d.Payload)+vpg.Overhead(len(group)))
	buf, err := sealer.Seal(buf, d.Header.Dst, d.Header.Protocol, d.Payload)
	if err != nil {
		n.stats.TxNoGroup++
		return nil, false
	}
	n.ipID++
	putIPv4Header(buf, d.Header.Src, d.Header.Dst, packet.ProtoVPGEncap, n.ipID)
	n.stats.Sealed++
	return &packet.Frame{Dst: dstMAC, Src: n.mac, Type: packet.EtherTypeVPG, Payload: buf}, true
}

// handleFrame is the ingress path: MAC filtering (free, in hardware),
// policy evaluation and optional VPG opening on the embedded processor,
// then delivery to the host. On the per-packet hot path
// (BenchmarkRxPath): the untraced steady state must not allocate.
//
//barbican:noalloc
func (n *NIC) handleFrame(f *packet.Frame) {
	if f.Dst != n.mac && !f.Dst.IsBroadcast() {
		return
	}
	n.stats.RxFrames++
	tid := f.TraceID
	tr := n.tracer
	if tr == nil {
		tid = 0
	}
	if n.locked {
		n.stats.RxLockedDrops++
		n.rxDrops[tracing.DropAgentNotReady]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICRx, tracing.DropAgentNotReady)
		}
		return
	}
	if f.Type == packet.EtherTypeARP {
		// The cards filter IP; address resolution passes untouched (and
		// unmetered — ARP is handled below the filtering processor).
		if n.deliver != nil {
			n.deliver(f)
		}
		return
	}
	s, err := packet.Summarize(f)
	if err != nil {
		n.stats.RxMalformed++
		n.rxDrops[tracing.DropMalformed]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICRx, tracing.DropMalformed)
		}
		return
	}

	if n.degState == StateDegraded && n.degradedIngress(f, s, tid) {
		return
	}

	verdict := fw.Verdict{Action: fw.Allow}
	path := MatchNone
	cs := fw.StateNone
	var ctCost float64
	stateFull := false
	if n.rules != nil && !n.isManagement(s) {
		cs, ctCost = n.classifyConn(s)
		if cs == fw.StateInvalid {
			// A packet that contradicts tracked connection state is
			// dropped before rule evaluation — the NIC-offload posture is
			// strict, unlike the host filter where rules may still match
			// INVALID explicitly. The lookup still cost the processor.
			if _, ok := n.proc.Admit(n.profile.CostPath(MatchNone, 0, 0) + ctCost); ok {
				if n.prof != nil {
					base, match, crypto := n.profile.CostPartsPath(MatchNone, 0, 0)
					n.prof.RecordRx(0, 0, base, match+ctCost, crypto) //barbican:allow alloc -- profiled-only branch; prof==nil on the contract path
				}
				n.stats.RxNoStateDrops++
				n.rxDrops[tracing.DropNoState]++
				if tid != 0 {
					tr.Drop(tid, tracing.StageNICRx, tracing.DropNoState)
				}
			} else {
				n.stats.RxOverloadDrops++
				reason := n.overloadReason()
				n.rxDrops[reason]++
				n.noteOverload(reason)
				if tid != 0 {
					tr.Drop(tid, tracing.StageNICRx, reason)
				}
			}
			return
		}
		verdict, path = n.evalPolicy(s, fw.In, cs)
		if tid != 0 {
			tr.RuleWalk(tid, verdict.Index, verdict.Traversed, verdict.Action.String()) //barbican:allow alloc -- traced-only branch; tid==0 when no tracer is attached
		}
		if verdict.Action == fw.Allow {
			// Only allowed packets occupy state-table slots: a denied SYN
			// never consumes conntrack memory (netfilter's conntrack
			// records what filter admits, not what arrives).
			insertCost, fullDrop := n.commitConn(s, cs)
			ctCost += insertCost
			stateFull = fullDrop
		}
	}

	cryptoBytes := 0
	if s.Sealed {
		matchedVPG := verdict.Action == fw.Allow && verdict.Rule != nil && verdict.Rule.IsVPG()
		switch {
		case n.profile.EagerVPGDecrypt:
			// Ablation ABL2: an eager filter trial-decrypts the envelope
			// at every candidate VPG rule it traverses, so non-matching
			// VPGs above the action pair multiply the crypto cost. The
			// real ADF is lazy — it decrypts once, at the matching rule.
			trials := 1
			if n.rules != nil {
				if c := n.rules.CountVPGCandidates(fw.In, verdict.Traversed); c > trials {
					trials = c
				}
			}
			cryptoBytes = trials * s.IPLen
		case matchedVPG:
			cryptoBytes = s.IPLen
		}
	}

	completeAt, ok := n.proc.Admit(n.profile.CostPath(path, verdict.Traversed, cryptoBytes) + ctCost)
	if !ok {
		n.stats.RxOverloadDrops++
		reason := n.overloadReason()
		n.rxDrops[reason]++
		n.noteOverload(reason)
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICRx, reason)
		}
		return
	}
	if n.prof != nil {
		base, match, crypto := n.profile.CostPartsPath(path, verdict.Traversed, cryptoBytes)
		n.prof.RecordRx(verdict.Traversed, verdict.Index, base, match+ctCost, crypto) //barbican:allow alloc -- profiled-only branch; prof==nil on the contract path
	}
	if verdict.Action == fw.Deny {
		n.stats.RxDenied++
		n.rxDrops[tracing.DropRuleDeny]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICRx, tracing.DropRuleDeny)
		}
		n.noteDenied()
		return
	}
	if stateFull {
		// Policy said allow but the state table is full and the posture
		// is not fail-open: the connection cannot be tracked, so it is
		// not admitted. The work was already done, hence after Admit.
		n.stats.RxStateFullDrops++
		n.rxDrops[tracing.DropStateTableFull]++
		if tid != 0 {
			tr.Drop(tid, tracing.StageNICRx, tracing.DropStateTableFull)
		}
		return
	}
	if tid != 0 {
		tr.Span(tid, tracing.StageNICRx, n.kernel.Now(), completeAt)
	}
	var pi *pendingIngress
	if k := len(n.ingressFree); k > 0 {
		pi = n.ingressFree[k-1]
		n.ingressFree[k-1] = nil
		n.ingressFree = n.ingressFree[:k-1]
	} else {
		pi = &pendingIngress{} //barbican:allow alloc -- cold-path freelist refill; steady state recycles
	}
	pi.f, pi.s, pi.verdict = f, s, verdict
	n.kernel.AtCall(completeAt, n.finishFn, pi)
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
		n.stats.RxLockedDrops++
		n.rxDrops[tracing.DropAgentNotReady]++
		if tid != 0 {
			n.tracer.Drop(tid, tracing.StageNICRx, tracing.DropAgentNotReady)
		}
		return
	}
	if !s.Sealed {
		n.stats.RxAllowed++
		if n.deliver != nil {
			n.deliver(f)
		}
		return
	}
	inner, ok := n.open(f, s, verdict, tid)
	if !ok {
		return
	}
	n.stats.RxAllowed++
	if n.deliver != nil {
		n.deliver(inner)
	}
}

// open verifies and decrypts a sealed frame, returning the reconstructed
// cleartext frame. tid is the frame's sampled trace (0 = untraced);
// drop reasons are recorded against it and propagated to the inner
// frame on success.
func (n *NIC) open(f *packet.Frame, s packet.Summary, verdict fw.Verdict, tid uint64) (*packet.Frame, bool) {
	drop := func(stat *uint64, reason tracing.DropReason) {
		*stat++
		n.rxDrops[reason]++
		if tid != 0 {
			n.tracer.Drop(tid, tracing.StageVPG, reason)
		}
	}
	outer, err := packet.UnmarshalDatagram(f.Payload)
	if err != nil {
		drop(&n.stats.RxMalformed, tracing.DropMalformed)
		return nil, false
	}
	name, err := vpg.PeekGroupName(outer.Payload)
	if err != nil {
		drop(&n.stats.RxMalformed, tracing.DropMalformed)
		return nil, false
	}
	// Policy must have admitted the packet via the VPG rule for this
	// group; sealed traffic admitted any other way is a configuration
	// error and is dropped.
	if verdict.Rule == nil || verdict.Rule.VPG != string(name) {
		if n.rules != nil {
			drop(&n.stats.RxNoGroup, tracing.DropNoGroup)
			return nil, false
		}
	}
	g, ok := n.groups[string(name)]
	if !ok {
		drop(&n.stats.RxNoGroup, tracing.DropNoGroup)
		return nil, false
	}
	// The inner datagram is opened straight into the frame's buffer
	// behind room for its IPv4 header, which is written once the
	// transport protocol is known.
	size := len(outer.Payload) - vpg.Overhead(len(name))
	buf := make([]byte, packet.IPv4HeaderLen, packet.IPv4HeaderLen+max(size, 0))
	proto, buf, seq, err := g.Open(buf, outer.Header.Src, outer.Header.Dst, outer.Payload)
	if err != nil {
		drop(&n.stats.RxAuthFailures, tracing.DropAuthFail)
		return nil, false
	}
	key := replayKey{group: g.Name(), sender: outer.Header.Src}
	w := n.replay[key]
	if w == nil {
		w = &vpg.ReplayWindow{}
		n.replay[key] = w
	}
	if !w.Check(seq) {
		drop(&n.stats.RxReplayDrops, tracing.DropReplay)
		return nil, false
	}
	n.stats.Opened++
	if tid != 0 {
		n.tracer.Point(tid, tracing.StageVPG, "opened "+g.Name())
	}
	putIPv4Header(buf, outer.Header.Src, outer.Header.Dst, proto, outer.Header.ID)
	return &packet.Frame{Dst: f.Dst, Src: f.Src, Type: packet.EtherTypeIPv4, Payload: buf, TraceID: tid}, true
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
