package telemetry

import (
	"testing"
	"time"
)

// feed synthesizes a report series: drop-counter deltas per 100 ms
// sample, fed through the detector with arrival = sent time.
func feed(d *Detector, deltas []uint64) {
	var total uint64
	at := time.Duration(0)
	for i, delta := range deltas {
		total += delta
		at = time.Duration(i+1) * 100 * time.Millisecond
		d.Observe(at, &Report{Device: "t", Seq: uint32(i + 1), SentAt: at, RxDrops: dropsOf(total)})
	}
}

func dropsOf(total uint64) (a [len(Report{}.RxDrops)]uint64) {
	a[0] = total
	return
}

// TestDetectorFloodOnset: a quiet baseline then a sustained burst must
// walk Healthy → Suspect → Alerting, and the alert timestamp must be
// the second hot sample's arrival time.
func TestDetectorFloodOnset(t *testing.T) {
	d := NewDetector()
	// Ten quiet samples (~50 drops/s), then a flood (~5000 drops/s).
	series := make([]uint64, 0, 16)
	for i := 0; i < 10; i++ {
		series = append(series, 5)
	}
	for i := 0; i < 4; i++ {
		series = append(series, 500)
	}
	feed(d, series)

	if d.State() != AlertAlerting {
		t.Fatalf("state = %v after sustained burst, want alerting", d.State())
	}
	if d.Alerts() != 1 {
		t.Fatalf("alerts = %d, want 1", d.Alerts())
	}
	tl := d.Transitions()
	if len(tl) != 2 || tl[0].To != AlertSuspect || tl[1].To != AlertAlerting {
		t.Fatalf("timeline = %+v, want suspect then alerting", tl)
	}
	// Sample 1 (100 ms) primes; samples through 1000 ms are quiet; the
	// 1100 ms sample is the first hot one (suspect), 1200 ms the second
	// (alerting).
	if want := 1200 * time.Millisecond; tl[1].At != want {
		t.Fatalf("alert at %v, want %v (detectRiseCount=2 × 100 ms cadence)", tl[1].At, want)
	}
}

// TestDetectorSingleSpikeClears: one hot sample must reach Suspect but
// never Alerting, and a calm follow-up returns to Healthy — the
// detectRiseCount hysteresis that keeps benign bursts from paging.
func TestDetectorSingleSpikeClears(t *testing.T) {
	d := NewDetector()
	feed(d, []uint64{5, 5, 5, 5, 500, 5, 5})
	if d.Alerts() != 0 {
		t.Fatalf("alerts = %d after a single-sample spike, want 0", d.Alerts())
	}
	if d.State() != AlertHealthy {
		t.Fatalf("state = %v, want healthy after spike cleared", d.State())
	}
}

// TestDetectorRecovery: after a flood stops, the detector must pass
// through Recovering and only declare Healthy after detectFallCount calm
// samples; a re-burst mid-recovery snaps back to Alerting.
func TestDetectorRecovery(t *testing.T) {
	d := NewDetector()
	feed(d, []uint64{5, 5, 5, 5, 500, 500, 500, 5, 5})
	if d.State() != AlertRecovering {
		t.Fatalf("state = %v two calm samples after flood end, want recovering", d.State())
	}
	feed2 := []uint64{5}
	var total uint64 = 5*6 + 500*3
	at := 1000 * time.Millisecond
	for i, delta := range feed2 {
		total += delta
		at += 100 * time.Millisecond
		_ = i
		d.Observe(at, &Report{Device: "t", Seq: 10, SentAt: at, RxDrops: dropsOf(total)})
	}
	if d.State() != AlertHealthy {
		t.Fatalf("state = %v after detectFallCount calm samples, want healthy", d.State())
	}

	// Re-burst during recovery must return to Alerting without a new
	// Suspect detour.
	d2 := NewDetector()
	feed(d2, []uint64{5, 5, 5, 5, 500, 500, 500, 5, 500})
	if d2.State() != AlertAlerting {
		t.Fatalf("state = %v after re-burst mid-recovery, want alerting", d2.State())
	}
	if d2.Alerts() != 2 {
		t.Fatalf("alerts = %d, want 2 (initial + re-burst)", d2.Alerts())
	}
}

// TestDetectorBacklogSignal: a report whose backlog crosses the floor
// is hot even with zero drops — the admitted-but-overwhelmed case.
func TestDetectorBacklogSignal(t *testing.T) {
	d := NewDetector()
	base := &Report{Device: "t", SentAt: 100 * time.Millisecond}
	d.Observe(100*time.Millisecond, base)
	for i := 2; i <= 3; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		d.Observe(at, &Report{Device: "t", Seq: uint32(i), SentAt: at, Backlog: time.Millisecond})
	}
	if d.State() != AlertAlerting {
		t.Fatalf("state = %v on sustained backlog with zero drops, want alerting", d.State())
	}
}

// TestDetectorGuards: duplicate timestamps and counter resets must
// re-prime or no-op, never produce a transition from a negative or
// infinite rate.
func TestDetectorGuards(t *testing.T) {
	d := NewDetector()
	r := &Report{Device: "t", Seq: 1, SentAt: 100 * time.Millisecond, RxDrops: dropsOf(1000)}
	d.Observe(100*time.Millisecond, r)
	// Same SentAt (duplicated datagram): ignored.
	if _, changed := d.Observe(101*time.Millisecond, r); changed {
		t.Fatal("duplicate report changed state")
	}
	// Counter reset (card reboot): re-prime, no judgement.
	reset := &Report{Device: "t", Seq: 2, SentAt: 200 * time.Millisecond, RxDrops: dropsOf(0)}
	if _, changed := d.Observe(200*time.Millisecond, reset); changed {
		t.Fatal("counter reset changed state")
	}
	if d.State() != AlertHealthy || len(d.Transitions()) != 0 {
		t.Fatalf("state = %v with %d transitions after guard cases, want pristine healthy",
			d.State(), len(d.Transitions()))
	}
}

// TestAlertStateStrings pins the rendered names golden tests depend on.
func TestAlertStateStrings(t *testing.T) {
	want := map[AlertState]string{
		AlertHealthy:    "healthy",
		AlertSuspect:    "suspect",
		AlertAlerting:   "alerting",
		AlertRecovering: "recovering",
		NumAlertStates:  "alert?",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("AlertState(%d).String() = %q, want %q", s, got, name)
		}
	}
}
