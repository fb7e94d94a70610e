package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// TestFailModeNoneIsInert: with the machine disarmed (the default),
// Begin/Abort are no-ops and the card never leaves healthy.
func TestFailModeNoneIsInert(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.BeginPolicyUpdate()
	b.AbortPolicyUpdate()
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	var delivered int
	b.SetDeliver(func(*packet.Frame) { delivered++ })
	a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if st := b.Stats(); st.DegradedEntries != 0 || st.UpdatesAborted != 0 {
		t.Errorf("disarmed machine recorded activity: %+v", st)
	}
}

// TestInterruptedUpdateFailClosed: an aborted policy update degrades a
// fail-closed card, which drops everything until the watchdog resets
// it back to the last committed rule set.
func TestInterruptedUpdateFailClosed(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	committed := fw.MustRuleSet(fw.Allow)
	b.InstallRuleSet(committed)
	b.SetFailMode(FailModeClosed)

	var delivered int
	b.SetDeliver(func(*packet.Frame) { delivered++ })

	b.BeginPolicyUpdate()
	if got := b.DegradedState(); got != StateUpdating {
		t.Fatalf("after begin: state = %v, want updating", got)
	}
	b.AbortPolicyUpdate()
	if got := b.DegradedState(); got != StateDegraded {
		t.Fatalf("after abort: state = %v, want degraded", got)
	}

	// Traffic during the degraded window is dropped fail-closed.
	k.AtCall(10*time.Millisecond, func(any) {
		a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB)
	}, nil)
	if err := k.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("fail-closed degraded card delivered %d frames", delivered)
	}
	st := b.Stats()
	if st.RxDegradedDrops != 1 || st.UpdatesAborted != 1 || st.DegradedEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	rx, _ := b.DropCounts()
	if rx[tracing.DropDegraded] != 1 {
		t.Fatalf("rxDrops[degraded] = %d, want 1", rx[tracing.DropDegraded])
	}

	// The watchdog resets the card and restores the committed policy.
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("after watchdog: state = %v, want healthy", got)
	}
	if b.RuleSet() != committed {
		t.Fatal("watchdog did not restore the committed rule set")
	}
	if b.Stats().WatchdogResets != 1 {
		t.Fatalf("WatchdogResets = %d, want 1", b.Stats().WatchdogResets)
	}
	k.AtCall(k.Now()+time.Millisecond, func(any) {
		a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB)
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("recovered card delivered %d frames, want 1", delivered)
	}
}

// TestInterruptedUpdateFailOpen: same interruption, opposite posture —
// the card passes traffic unfiltered while degraded, even traffic the
// committed policy denies.
func TestInterruptedUpdateFailOpen(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny)) // deny-all committed policy
	b.SetFailMode(FailModeOpen)

	var delivered int
	b.SetDeliver(func(*packet.Frame) { delivered++ })

	b.BeginPolicyUpdate()
	b.AbortPolicyUpdate()
	k.AtCall(10*time.Millisecond, func(any) {
		a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB)
	}, nil)
	if err := k.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("fail-open degraded card delivered %d frames, want 1 (unfiltered)", delivered)
	}
	if b.Stats().DegradedPass != 1 {
		t.Fatalf("DegradedPass = %d, want 1", b.Stats().DegradedPass)
	}

	// After recovery the deny-all policy bites again.
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	k.AtCall(k.Now()+time.Millisecond, func(any) {
		a.Send(udpDatagram(ipA, ipB, 1000, 2000, 100), macB)
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("recovered deny-all card delivered %d total, want still 1", delivered)
	}
}

// TestWatchdogFiresOnStalledUpdate: BeginPolicyUpdate with no commit
// degrades on its own once the update watchdog expires.
func TestWatchdogFiresOnStalledUpdate(t *testing.T) {
	k := sim.NewKernel()
	_, b := pair(t, k, Standard(), EFW())
	b.SetFailMode(FailModeClosed)
	b.BeginPolicyUpdate()
	if err := k.RunUntil(DefaultUpdateWatchdog / 2); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateUpdating {
		t.Fatalf("before watchdog: state = %v, want updating", got)
	}
	if err := k.RunUntil(DefaultUpdateWatchdog + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateDegraded {
		t.Fatalf("after watchdog: state = %v, want degraded", got)
	}
	if b.Stats().UpdatesAborted != 1 {
		t.Fatalf("UpdatesAborted = %d, want 1", b.Stats().UpdatesAborted)
	}
}

// TestCommitCancelsWatchdog: a commit inside the window installs the
// new policy and the watchdog never fires.
func TestCommitCancelsWatchdog(t *testing.T) {
	k := sim.NewKernel()
	_, b := pair(t, k, Standard(), EFW())
	b.SetFailMode(FailModeClosed)
	next := fw.MustRuleSet(fw.Allow)
	b.BeginPolicyUpdate()
	k.At(DefaultUpdateWatchdog/4, func() { b.CommitPolicyUpdate(next) })
	if err := k.RunUntil(2 * DefaultUpdateWatchdog); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	if b.RuleSet() != next || b.LastCommitted() != next {
		t.Fatal("commit did not install the new policy")
	}
	if st := b.Stats(); st.DegradedEntries != 0 || st.UpdatesAborted != 0 {
		t.Fatalf("watchdog fired despite commit: %+v", st)
	}
}

// TestRestartAgentClearsDegraded: the paper's recovery action resets
// the degraded machine too.
func TestRestartAgentClearsDegraded(t *testing.T) {
	k := sim.NewKernel()
	_, b := pair(t, k, Standard(), EFW())
	b.SetFailMode(FailModeClosed)
	b.BeginPolicyUpdate()
	b.AbortPolicyUpdate()
	if got := b.DegradedState(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	b.RestartAgent()
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("after restart: state = %v, want healthy", got)
	}
	if err := k.Run(); err != nil { // any leftover watchdog events must be inert
		t.Fatal(err)
	}
	if b.Stats().WatchdogResets != 0 {
		t.Fatalf("WatchdogResets = %d, want 0 after manual restart", b.Stats().WatchdogResets)
	}
}
