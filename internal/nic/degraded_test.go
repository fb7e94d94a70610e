package nic

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// TestFailModeNoneIsInert: a healthy card reports FailModeNone, and a
// Degrade with FailModeNone enters no episode.
func TestFailModeNoneIsInert(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.Degrade(FailModeNone, RecoveryResync)
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	if got := b.FailMode(); got != FailModeNone {
		t.Fatalf("FailMode = %v, want none", got)
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
	if st := b.Stats(); st.DegradedEntries != 0 || st.WatchdogResets != 0 {
		t.Errorf("no-op Degrade recorded activity: %+v", st)
	}
}

// TestInterruptedUpdateFailClosed: a fail-closed degraded episode, as
// an interrupted policy update leaves, drops everything until the
// watchdog resets the card to the installed rule set.
func TestInterruptedUpdateFailClosed(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	committed := fw.MustRuleSet(fw.Allow)
	b.InstallRuleSet(committed)

	var delivered int
	b.SetDeliver(func(*packet.Frame) { delivered++ })

	b.Degrade(FailModeClosed, RecoveryResync)
	if got := b.DegradedState(); got != StateDegraded {
		t.Fatalf("after Degrade: state = %v, want degraded", got)
	}
	if got := b.FailMode(); got != FailModeClosed {
		t.Fatalf("FailMode = %v, want fail-closed", got)
	}
	// A second Degrade during the episode changes nothing.
	b.Degrade(FailModeOpen, RecoveryFlush)
	if got := b.FailMode(); got != FailModeClosed {
		t.Fatalf("FailMode after a second Degrade = %v, want fail-closed", got)
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
	if st.RxDrops[tracing.DropDegraded] != 1 || st.DegradedEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	rx, _ := b.DropCounts()
	if rx[tracing.DropDegraded] != 1 {
		t.Fatalf("rxDrops[degraded] = %d, want 1", rx[tracing.DropDegraded])
	}

	// The watchdog ends the episode after DefaultRecoveryInterval and
	// the installed policy is enforced again.
	if err := k.RunUntil(DefaultRecoveryInterval - time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateDegraded {
		t.Fatalf("before the watchdog: state = %v, want degraded", got)
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.DegradedState(); got != StateHealthy {
		t.Fatalf("after watchdog: state = %v, want healthy", got)
	}
	if got := b.FailMode(); got != FailModeNone {
		t.Fatalf("FailMode after watchdog = %v, want none", got)
	}
	if b.RuleSet() != committed {
		t.Fatal("the episode replaced the installed rule set")
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

// TestInterruptedUpdateFailOpen: same episode, opposite posture — the
// card passes traffic unfiltered while degraded, even traffic the
// installed policy denies.
func TestInterruptedUpdateFailOpen(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(t, k, Standard(), EFW())
	b.InstallRuleSet(fw.MustRuleSet(fw.Deny)) // deny-all installed policy

	var delivered int
	b.SetDeliver(func(*packet.Frame) { delivered++ })

	b.Degrade(FailModeOpen, RecoveryResync)
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
