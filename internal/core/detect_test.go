package core

import (
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/telemetry"
)

// TestDetectionBounds is the seeded detection smoke: a fixed-rate
// denied flood against the NextGen card (no overload, telemetry
// unimpeded) must alert within tight, explainable bounds — no earlier
// than two report intervals (the detector needs two consecutive hot
// samples) and well before one second.
func TestDetectionBounds(t *testing.T) {
	p, err := RunDetection(DetectionScenario{
		Device: DeviceNextGen, Depth: 64,
		FloodRatePPS: 8000, Duration: 3 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Detected {
		t.Fatalf("denied 8000 pps flood went undetected; final state %v", p.FinalState)
	}
	lo := 2 * telemetry.ReportInterval
	if p.TimeToDetect < lo || p.TimeToDetect > time.Second {
		t.Errorf("time-to-detect = %v, want within [%v, 1s]", p.TimeToDetect, lo)
	}
	if p.FalseAlerts != 0 {
		t.Errorf("false alerts = %d on a quiet baseline, want 0", p.FalseAlerts)
	}
	if p.ExposedTotal != 0 {
		t.Errorf("denied flood exposed %d packets, want 0", p.ExposedTotal)
	}
}

// TestDetectionWithoutPushEndsWithWindow: with nothing pushed there
// is nothing to settle, so a run ends when its window closes — plus
// the 2 s post-flood drain when there was a flood — instead of
// simulating the 15 s push settle.
func TestDetectionWithoutPushEndsWithWindow(t *testing.T) {
	const window = 3 * time.Second
	for _, rate := range []float64{0, 8000} {
		p, err := RunDetection(DetectionScenario{
			Device: DeviceADF, Depth: 64,
			FloodRatePPS: rate, Duration: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := window
		if rate > 0 {
			want += 2 * time.Second
		}
		if p.SimSeconds != want.Seconds() {
			t.Errorf("%.0f pps flood, no push: simulated %.3fs, want %.3fs", rate, p.SimSeconds, want.Seconds())
		}
	}
}

// TestDetectionClosesExposure: an admitted flood against the ADF card
// must be detected, trigger the responsive push, and the converged
// blocklist must stop the exposure counter well short of the flood
// total.
func TestDetectionClosesExposure(t *testing.T) {
	p, err := RunDetection(DetectionScenario{
		Device: DeviceADF, Depth: 64, FloodAllowed: true,
		FloodRatePPS: 8000, Duration: 3 * time.Second, Seed: 7,
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Detected || !p.Converged {
		t.Fatalf("detected=%v converged=%v (err %q), want both", p.Detected, p.Converged, p.PushError)
	}
	if p.ExposedAtDetect == 0 {
		t.Error("admitted flood shows zero exposure at detection; sink accounting broken")
	}
	if p.ExposedAtDetect > p.ExposedAtConverge || p.ExposedAtConverge > p.ExposedTotal {
		t.Errorf("exposure not monotonic: detect=%d converge=%d total=%d",
			p.ExposedAtDetect, p.ExposedAtConverge, p.ExposedTotal)
	}
	// The mitigation must actually bite: after convergence the card
	// denies the flood, so total exposure stays close to the converge
	// mark instead of tracking FloodSent.
	if p.ExposedTotal >= p.FloodSent {
		t.Errorf("exposure %d never separated from flood volume %d; mitigation had no effect",
			p.ExposedTotal, p.FloodSent)
	}
	if p.FinalState != telemetry.AlertHealthy {
		t.Errorf("final state = %v after mitigation settled, want healthy", p.FinalState)
	}
}

// TestDetectionSilenceCatchesLockup: the EFW Deny-All lockup silences
// the victim's own telemetry; the collector's staleness watchdog must
// still raise the alert. The alert is the watchdog's silence sample
// (Signal -1), taken after the target's last report: silence, not a
// report, is the signal.
func TestDetectionSilenceCatchesLockup(t *testing.T) {
	p, err := RunDetection(DetectionScenario{
		Device: DeviceEFW, Depth: 64,
		FloodRatePPS: 8000, Duration: 3 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.TargetLocked {
		t.Fatal("EFW did not lock up under a denied 8000 pps flood; scenario no longer reproduces the paper's lockup")
	}
	if !p.Detected {
		t.Fatalf("lockup went undetected with the silence watchdog armed; final state %v", p.FinalState)
	}
	var alert *telemetry.Transition
	for i, tr := range p.Timeline {
		if tr.To == telemetry.AlertAlerting && tr.At == p.AlertAt {
			alert = &p.Timeline[i]
			break
		}
	}
	if alert == nil {
		t.Fatalf("no Alerting transition at the detection time %v: %+v", p.AlertAt, p.Timeline)
	}
	if alert.Signal != -1 {
		t.Errorf("the alert came from a report (signal %.1f), not from the silence sample", alert.Signal)
	}
	for _, d := range p.Fleet {
		if d.Device == "target" && (d.Reports == 0 || d.LastSeen >= alert.At) {
			t.Errorf("target's last report at %v (%d reports), want one before the alert at %v",
				d.LastSeen, d.Reports, alert.At)
		}
	}
}

// TestDetectionTelemetryLossWidensWindow: management-plane loss must
// measurably delay detection — lost reports are lost signal. This is
// the core chaos acceptance property, checked at scenario level.
func TestDetectionTelemetryLossWidensWindow(t *testing.T) {
	// 6000 pps overloads the ADF card mildly: drops and backlog rise
	// but the agent's reports still escape, so detection is
	// report-driven on the clean channel and only falls back to the
	// silence watchdog when the fault plan eats the reports. (At
	// 8000 pps the flood itself squeezes out all telemetry and both
	// conditions collapse onto the silence path.)
	base := DetectionScenario{
		Device: DeviceADF, Depth: 64, FloodAllowed: true,
		FloodRatePPS: 6000, Duration: 3 * time.Second, Seed: 7,
		Respond: true,
	}
	clean, err := RunDetection(base)
	if err != nil {
		t.Fatal(err)
	}

	lossy := base
	lossy.MgmtFaults = faults.Plan{Loss: 0.6}
	lossy.FaultSeed = 42
	faulted, err := RunDetection(lossy)
	if err != nil {
		t.Fatal(err)
	}

	if !clean.Detected || !faulted.Detected {
		t.Fatalf("detected: clean=%v faulted=%v, want both", clean.Detected, faulted.Detected)
	}
	if faulted.Gaps == 0 {
		t.Error("60%% loss produced no sequence gaps; fault plan not reaching telemetry")
	}
	if faulted.TimeToDetect <= clean.TimeToDetect {
		t.Errorf("time-to-detect under 60%% loss (%v) not wider than clean (%v)",
			faulted.TimeToDetect, clean.TimeToDetect)
	}
	if faulted.ExposedAtDetect <= clean.ExposedAtDetect {
		t.Errorf("exposure at detect under loss (%d) not wider than clean (%d)",
			faulted.ExposedAtDetect, clean.ExposedAtDetect)
	}
}

// TestDetectionDeterministicPoints: the same scenario run twice must
// produce identical measurements — the contract the experiment-level
// serial/parallel golden builds on.
func TestDetectionDeterministicPoints(t *testing.T) {
	s := DetectionScenario{
		Device: DeviceADF, Depth: 64, FloodAllowed: true,
		FloodRatePPS: 8000, Duration: 2 * time.Second, Seed: 11,
		MgmtFaults: faults.Plan{Loss: 0.3}, FaultSeed: 42,
		Respond: true,
	}
	a, err := RunDetection(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDetection(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeToDetect != b.TimeToDetect || a.ExposedAtDetect != b.ExposedAtDetect ||
		a.ExposedAtConverge != b.ExposedAtConverge || a.Reports != b.Reports ||
		a.Gaps != b.Gaps || len(a.Timeline) != len(b.Timeline) {
		t.Errorf("repeat run diverged:\n a: ttd=%v exp=%d/%d reports=%d gaps=%d tl=%d\n b: ttd=%v exp=%d/%d reports=%d gaps=%d tl=%d",
			a.TimeToDetect, a.ExposedAtDetect, a.ExposedAtConverge, a.Reports, a.Gaps, len(a.Timeline),
			b.TimeToDetect, b.ExposedAtDetect, b.ExposedAtConverge, b.Reports, b.Gaps, len(b.Timeline))
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			t.Errorf("timeline[%d] diverged: %+v vs %+v", i, a.Timeline[i], b.Timeline[i])
		}
	}
}
