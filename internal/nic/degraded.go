package nic

import (
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
)

// FailMode selects what a card does with traffic while its policy
// plane is degraded (an interrupted policy update, or firmware backlog
// past the CPU-exhaustion threshold). The zero value disables the
// degraded-mode state machine entirely, preserving the legacy
// fair-weather behavior byte for byte.
type FailMode uint8

const (
	// FailModeNone disables the degraded-mode machine (legacy behavior).
	FailModeNone FailMode = iota
	// FailModeClosed drops all non-management traffic while degraded:
	// the safe-but-unavailable posture. The management bypass still
	// passes, so a policy re-push can land and restore service.
	FailModeClosed
	// FailModeOpen passes all traffic unfiltered while degraded: the
	// available-but-unprotected posture (hardware bypass).
	FailModeOpen

	NumFailModes // array-sizing sentinel, not a mode
)

var failModeNames = [...]string{
	FailModeNone:   "none",
	FailModeClosed: "fail-closed",
	FailModeOpen:   "fail-open",
}

func (m FailMode) String() string {
	if int(m) < len(failModeNames) && failModeNames[m] != "" {
		return failModeNames[m]
	}
	return "failmode?"
}

// DegradedState is the card's policy-plane state.
type DegradedState uint8

const (
	// StateHealthy: committed policy enforced normally.
	StateHealthy DegradedState = iota
	// StateUpdating: a policy push is in flight; the previous committed
	// policy stays enforced until commit (atomic swap).
	StateUpdating
	// StateDegraded: an update was interrupted or the firmware backlog
	// crossed the CPU-exhaustion threshold; traffic handling follows
	// the configured FailMode until the watchdog resets the card.
	StateDegraded
	// StateWedged: the EFW Deny-All lockup; only RestartAgent recovers.
	StateWedged

	NumDegradedStates // array-sizing sentinel, not a state
)

var degradedStateNames = [...]string{
	StateHealthy:  "healthy",
	StateUpdating: "updating",
	StateDegraded: "degraded",
	StateWedged:   "wedged",
}

func (s DegradedState) String() string {
	if int(s) < len(degradedStateNames) && degradedStateNames[s] != "" {
		return degradedStateNames[s]
	}
	return "state?"
}

// StateRecovery selects what happens to the conntrack table when
// enforcement returns after a degraded episode. The hazard: while a
// fail-open card passed traffic unfiltered, connections were
// established that the table never saw. With a stateful policy those
// flows classify INVALID the moment enforcement resumes — the state
// desync failure, where recovery itself severs every connection that
// survived the outage.
type StateRecovery uint8

const (
	// RecoveryResync keeps tracked entries and opens a loose-pickup
	// window: for its duration, mid-stream TCP packets with no entry
	// classify New and, if the policy admits them, are adopted as
	// established connections (the net.netfilter.nf_conntrack_tcp_loose
	// analog). The default, and the fix for the desync hazard.
	RecoveryResync StateRecovery = iota
	// RecoveryKeep keeps tracked entries but opens no pickup window:
	// connections established while degraded-open desync and are
	// severed. Exists to reproduce the hazard measurably.
	RecoveryKeep
	// RecoveryFlush drops the whole table on recovery: every live
	// connection desyncs, not just the outage-born ones. The worst
	// posture, kept for comparison.
	RecoveryFlush

	NumStateRecoveries // array-sizing sentinel, not a policy
)

var stateRecoveryNames = [...]string{
	RecoveryResync: "resync",
	RecoveryKeep:   "keep",
	RecoveryFlush:  "flush",
}

func (p StateRecovery) String() string {
	if int(p) < len(stateRecoveryNames) && stateRecoveryNames[p] != "" {
		return stateRecoveryNames[p]
	}
	return "staterecovery?"
}

// SetStateRecovery selects the conntrack recovery policy.
func (n *NIC) SetStateRecovery(p StateRecovery) { n.stateRecovery = p }

// StateRecovery returns the configured conntrack recovery policy.
func (n *NIC) StateRecovery() StateRecovery { return n.stateRecovery }

// Degraded-mode timing defaults.
const (
	// DefaultUpdateWatchdog bounds how long a policy update may stay
	// open before the card declares it interrupted and degrades.
	DefaultUpdateWatchdog = 500 * time.Millisecond
	// DefaultRecoveryInterval is how often a degraded card's watchdog
	// checks whether it can reset (restore the last committed rule set
	// and return to healthy).
	DefaultRecoveryInterval = 100 * time.Millisecond
	// DefaultResyncWindow is how long after recovery the conntrack
	// table accepts mid-stream pickup under RecoveryResync.
	DefaultResyncWindow = time.Second
)

// conntrackRecovered applies the configured StateRecovery policy at the
// moment enforcement returns after a degraded episode. Callers run it
// after the committed rule set is restored.
func (n *NIC) conntrackRecovered() {
	if n.ct == nil {
		return
	}
	switch n.stateRecovery {
	case RecoveryKeep:
		// Entries survive; outage-born flows stay invisible (the hazard).
	case RecoveryFlush:
		n.ct.Flush()
	case RecoveryResync, NumStateRecoveries:
		n.ct.EnterLooseWindow(n.kernel.Now() + DefaultResyncWindow)
	}
}

// SetFailMode arms (or with FailModeNone disarms) the degraded-mode
// state machine. With the machine off — the default — the card behaves
// exactly as it did before fault tolerance existed.
func (n *NIC) SetFailMode(m FailMode) { n.failMode = m }

// FailMode returns the configured degraded-traffic posture.
func (n *NIC) FailMode() FailMode { return n.failMode }

// DegradedState returns the card's policy-plane state. A wedged card
// reports StateWedged regardless of the degraded machine.
func (n *NIC) DegradedState() DegradedState {
	if n.locked {
		return StateWedged
	}
	return n.degState
}

// LastCommitted returns the last committed rule set — what a watchdog
// reset restores.
func (n *NIC) LastCommitted() *fw.RuleSet { return n.lastCommitted }

// BeginPolicyUpdate marks a policy push in flight and arms the update
// watchdog: if neither CommitPolicyUpdate nor AbortPolicyUpdate runs
// within the watchdog window, the update counts as interrupted and the
// card degrades. No-op when the degraded machine is off.
func (n *NIC) BeginPolicyUpdate() {
	if n.failMode == FailModeNone {
		return
	}
	if n.updateEv != nil {
		n.updateEv.Cancel()
		n.updateEv = nil
	}
	if n.degState == StateHealthy {
		n.degState = StateUpdating
	}
	n.updateEv = n.kernel.After(DefaultUpdateWatchdog, func() {
		n.updateEv = nil
		n.AbortPolicyUpdate()
	})
}

// CommitPolicyUpdate atomically installs rs as the enforced and last
// committed policy and returns the card to healthy (a successful
// commit is itself a recovery action when degraded).
func (n *NIC) CommitPolicyUpdate(rs *fw.RuleSet) {
	if n.updateEv != nil {
		n.updateEv.Cancel()
		n.updateEv = nil
	}
	if n.recoverEv != nil {
		n.recoverEv.Cancel()
		n.recoverEv = nil
	}
	wasDegraded := n.degState == StateDegraded
	n.setRules(rs)
	n.lastCommitted = rs
	n.degState = StateHealthy
	if wasDegraded {
		n.conntrackRecovered()
	}
}

// CancelPolicyUpdate ends an in-flight policy update that was cleanly
// rejected (stale version, unparseable policy): the card returns to
// healthy with its current rules, no degradation. Contrast
// AbortPolicyUpdate, which is for updates that were torn down mid-push.
func (n *NIC) CancelPolicyUpdate() {
	if n.updateEv != nil {
		n.updateEv.Cancel()
		n.updateEv = nil
	}
	if n.degState == StateUpdating {
		n.degState = StateHealthy
	}
}

// AbortPolicyUpdate declares the in-flight policy update interrupted
// (connection torn down mid-push, corrupted payload, watchdog expiry).
// The card degrades per its FailMode. No-op when the machine is off or
// no update is in flight.
func (n *NIC) AbortPolicyUpdate() {
	if n.updateEv != nil {
		n.updateEv.Cancel()
		n.updateEv = nil
	}
	if n.failMode == FailModeNone || n.degState != StateUpdating {
		return
	}
	n.stats.UpdatesAborted++
	n.enterDegraded(false)
}

// noteOverload watches processor admission rejections: past the
// CPU-exhaustion threshold the card degrades (when the machine is
// armed), bounding how long it keeps half-serving under flood.
func (n *NIC) noteOverload(reason tracing.DropReason) {
	if n.failMode == FailModeNone || reason != tracing.DropCPUExhausted {
		return
	}
	if n.degState == StateHealthy || n.degState == StateUpdating {
		n.enterDegraded(true)
	}
}

// enterDegraded transitions to StateDegraded and schedules the
// watchdog recovery check. fromOverload marks backlog-triggered
// entries, which must additionally wait for the backlog to drain
// before the watchdog resets.
func (n *NIC) enterDegraded(fromOverload bool) {
	if n.degState == StateDegraded {
		return
	}
	n.degState = StateDegraded
	n.overloadDegrade = fromOverload
	n.stats.DegradedEntries++
	// Posture change: verdicts cached while healthy must not outlive
	// the transition (and the flow cache must be cold when the watchdog
	// later restores enforcement).
	n.invalidateFlowCache()
	if n.recoverEv != nil {
		n.recoverEv.Cancel()
	}
	n.recoverEv = n.kernel.After(DefaultRecoveryInterval, n.recoverCheck)
}

// recoverCheck is the degraded watchdog: once any triggering backlog
// has drained it resets the card — restoring the last committed rule
// set and returning to healthy — otherwise it re-arms itself.
func (n *NIC) recoverCheck() {
	n.recoverEv = nil
	if n.degState != StateDegraded {
		return
	}
	if n.overloadDegrade && n.proc.Backlog() >= cpuExhaustedBacklog/2 {
		n.recoverEv = n.kernel.After(DefaultRecoveryInterval, n.recoverCheck)
		return
	}
	n.setRules(n.lastCommitted)
	n.degState = StateHealthy
	n.stats.WatchdogResets++
	n.conntrackRecovered()
}

// degradedIngress applies the FailMode to one ingress frame while
// degraded. It reports whether the frame was fully handled here;
// false falls through to the normal path (fail-closed management
// traffic, which must keep flowing for recovery pushes to land).
func (n *NIC) degradedIngress(f *packet.Frame, s packet.Summary, tid uint64) bool {
	if n.failMode == FailModeOpen {
		n.stats.DegradedPass++
		n.stats.RxAllowed++
		if tid != 0 {
			n.tracer.Point(tid, tracing.StageNICRx, "degraded fail-open pass")
		}
		if n.deliver != nil {
			n.deliver(f)
		}
		return true
	}
	if n.isManagement(s) {
		return false
	}
	n.stats.RxDegradedDrops++
	n.rxDrops[tracing.DropDegraded]++
	if tid != 0 {
		n.tracer.Drop(tid, tracing.StageNICRx, tracing.DropDegraded)
	}
	return true
}

// degradedEgress applies the FailMode to one egress datagram while
// degraded; handled=false falls through to the normal path.
func (n *NIC) degradedEgress(d *packet.Datagram, dstMAC packet.MAC, s packet.Summary, tid uint64) (handled, sent bool) {
	if n.failMode == FailModeOpen {
		n.stats.DegradedPass++
		n.stats.TxAllowed++
		frame := &packet.Frame{Dst: dstMAC, Src: n.mac, Type: packet.EtherTypeIPv4, Payload: d.Marshal(), TraceID: tid}
		if tid != 0 {
			n.tracer.Point(tid, tracing.StageNICTx, "degraded fail-open pass")
		}
		n.ep.Send(frame)
		return true, true
	}
	if n.isManagement(s) {
		return false, false
	}
	n.stats.TxDegradedDrops++
	n.txDrops[tracing.DropDegraded]++
	if tid != 0 {
		n.tracer.Drop(tid, tracing.StageNICTx, tracing.DropDegraded)
	}
	return true, false
}
