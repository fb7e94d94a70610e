package nic

import (
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
)

// FailMode is a degraded episode's traffic posture. A healthy card
// reports FailModeNone: it is in no episode.
type FailMode uint8

const (
	// FailModeNone: no degraded episode; the policy is enforced.
	FailModeNone FailMode = iota
	// FailModeClosed drops all non-management traffic while degraded:
	// the safe-but-unavailable posture. The management bypass still
	// passes, so the control channel survives the episode.
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
	// StateHealthy: the installed policy is enforced normally.
	StateHealthy DegradedState = iota
	// StateDegraded: a degraded episode (Degrade) is under way; traffic
	// handling follows its FailMode until the watchdog resets the card.
	StateDegraded
	// StateWedged: the EFW Deny-All lockup; nothing recovers it.
	StateWedged

	NumDegradedStates // array-sizing sentinel, not a state
)

var degradedStateNames = [...]string{
	StateHealthy:  "healthy",
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

// Degraded-mode timing defaults.
const (
	// DefaultRecoveryInterval is how long a degraded episode lasts: the
	// watchdog resets the card this long after Degrade.
	DefaultRecoveryInterval = 100 * time.Millisecond
	// DefaultResyncWindow is how long after recovery the conntrack
	// table accepts mid-stream pickup under RecoveryResync.
	DefaultResyncWindow = time.Second
)

// Degrade starts a degraded episode now, the state an interrupted
// policy update leaves a card in: traffic follows mode until the
// watchdog resets the card DefaultRecoveryInterval later, and the reset
// treats the conntrack table as recovery says. A no-op with
// FailModeNone or while an episode is already under way.
func (n *NIC) Degrade(mode FailMode, recovery StateRecovery) {
	if mode == FailModeNone || n.failMode != FailModeNone {
		return
	}
	n.failMode = mode
	n.stateRecovery = recovery
	n.stats.DegradedEntries++
	// Posture change: verdicts cached while healthy must not outlive
	// the transition (and the flow cache must be cold when the watchdog
	// later restores enforcement).
	n.invalidateFlowCache()
	n.kernel.After(DefaultRecoveryInterval, n.recoverCheck)
}

// recoverCheck is the degraded watchdog: it ends the episode, returning
// the card to healthy with a cold flow cache, and applies the episode's
// StateRecovery to the conntrack table.
func (n *NIC) recoverCheck() {
	n.failMode = FailModeNone
	n.invalidateFlowCache()
	n.stats.WatchdogResets++
	n.conntrackRecovered()
}

// conntrackRecovered applies the episode's StateRecovery policy at the
// moment enforcement returns.
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

// FailMode returns the current degraded episode's posture, FailModeNone
// while the card is healthy.
func (n *NIC) FailMode() FailMode { return n.failMode }

// DegradedState returns the card's policy-plane state. A wedged card
// reports StateWedged whether or not an episode is under way.
func (n *NIC) DegradedState() DegradedState {
	switch {
	case n.locked:
		return StateWedged
	case n.failMode != FailModeNone:
		return StateDegraded
	}
	return StateHealthy
}

// degraded applies the episode's FailMode to one packet in direction
// dir. handled=false sends the packet on to the policy stage:
// fail-closed, the exempt management channel keeps flowing. Otherwise
// pass reports a fail-open bypass, which the caller forwards
// unfiltered, and a fail-closed packet has been dropped here.
func (n *NIC) degraded(dir fw.Direction, exempt bool, tid uint64) (handled, pass bool) {
	if n.failMode == FailModeOpen {
		n.stats.DegradedPass++
		if dir == fw.In {
			n.stats.RxAllowed++
		} else {
			n.stats.TxAllowed++
		}
		if tid != 0 {
			n.tracer.Point(tid, cardStage(dir), "degraded fail-open pass")
		}
		return true, true
	}
	if exempt {
		return false, false
	}
	n.drop(dir, cardStage(dir), tracing.DropDegraded, tid)
	return true, false
}
