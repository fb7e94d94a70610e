package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/measure"
	"barbican/internal/obs/tracing"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// drainHorizon bounds how much virtual time a finished run may take to
// reach a moment with no frame in flight. Background traffic (telemetry
// reports, keepalives, benign bursts) keeps some kernels from ever
// emptying, but every one of them goes quiet between packets.
const drainHorizon = 10 * time.Second

// collectTestbeds installs the NewTestbed hook for the rest of the test
// and returns a function that hands over (and forgets) every testbed
// built since its last call.
func collectTestbeds(t *testing.T) func() []*Testbed {
	var mu sync.Mutex
	var built []*Testbed
	onTestbed = func(tb *Testbed) {
		mu.Lock()
		built = append(built, tb)
		mu.Unlock()
	}
	t.Cleanup(func() { onTestbed = nil })
	return func() []*Testbed {
		mu.Lock()
		defer mu.Unlock()
		out := built
		built = nil
		return out
	}
}

// checkFramesReleased runs tb's kernel until no pooled frame is out,
// and fails unless that moment comes: every frame the testbed's pool
// issued has then been released, exactly once (a second release
// panics).
func checkFramesReleased(t *testing.T, tb *Testbed) {
	t.Helper()
	pool := tb.Switch.Frames()
	limit := tb.Kernel.Now() + drainHorizon
	for pool.Outstanding() > 0 && tb.Kernel.Now() <= limit && tb.Kernel.Step() {
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("%d of %d pooled frames never released (kernel at %v, %d events pending)",
			n, pool.Taken(), tb.Kernel.Now(), tb.Kernel.Len())
	}
	if pool.Taken() == 0 {
		t.Error("the testbed's pool issued no frame")
	}
}

// TestFramePoolBalanceLaw holds every scenario family to the frame
// ownership rule: once a run's traffic has drained, every frame its
// testbed's pool handed out has come back. A path that forgets a
// release — a drop, a filtered or flooded switch frame, a fault — leaves
// a frame out forever and fails here.
func TestFramePoolBalanceLaw(t *testing.T) {
	faultPlan, err := faults.ParsePlan("loss=0.05,dup=0.05,corrupt=0.05,reorder=0.05")
	if err != nil {
		t.Fatal(err)
	}
	window := 500 * time.Millisecond
	families := []struct {
		name string
		run  func() error
	}{
		{"bandwidth/efw-allowed-flood", func() error {
			_, err := RunBandwidth(Scenario{Device: DeviceEFW, Depth: 64, FloodRatePPS: 8000, FloodAllowed: true, Duration: window})
			return err
		}},
		{"bandwidth/efw-denied-flood-lockup", func() error {
			p, err := RunBandwidth(Scenario{Device: DeviceEFW, Depth: 1, FloodRatePPS: 12500, Duration: window})
			if err == nil && !p.TargetLocked {
				err = errors.New("the denied flood did not lock the EFW")
			}
			return err
		}},
		{"bandwidth/standard-flood-over-line-rate", func() error {
			// 200 kpps of minimum-size frames is beyond what 100 Mbps
			// carries, so the attacker's link queue overflows.
			_, err := RunBandwidth(Scenario{Device: DeviceStandard, FloodRatePPS: 200000, FloodAllowed: true, Duration: window})
			return err
		}},
		{"bandwidth/adf-vpg-fragmented-flood", func() error {
			_, err := RunBandwidth(Scenario{Device: DeviceADFVPG, Depth: 1, FloodRatePPS: 4000, FloodFragmented: true, Duration: window})
			return err
		}},
		{"bandwidth/iptables-faults", func() error {
			_, err := RunBandwidth(Scenario{Device: DeviceIPTables, Depth: 8, Faults: &faultPlan, Duration: window})
			return err
		}},
		{"timeline/traced-captured", func() error {
			_, _, err := RunBandwidthObserved(Scenario{
				Device: DeviceADF, Depth: 1, FloodRatePPS: 12500, FloodAllowed: true,
				FloodStart: window / 4, FloodStop: 3 * window / 4, Duration: window,
			}, ObserveOptions{Trace: tracing.Options{SampleEvery: 8}, Capture: true})
			return err
		}},
		{"chaos/faulty-mgmt", func() error {
			p, err := RunChaos(ChaosScenario{Device: DeviceEFW, FloodRatePPS: 8000, MgmtFaults: faultPlan, Duration: 2 * time.Second})
			if err == nil && (p.FloodSent == 0 || p.Server.Attempts == 0) {
				err = errors.New("no policy push under the flood")
			}
			return err
		}},
		{"chaos/clean-mgmt", func() error {
			// A push that succeeds closes its connection: TIME_WAIT
			// and the close path run with the flood still on.
			p, err := RunChaos(ChaosScenario{Device: DeviceADF, FloodRatePPS: 8000, Duration: 2 * time.Second})
			if err == nil && (p.FloodSent == 0 || p.Server.Successes == 0) {
				err = errors.New("no successful policy push under the flood")
			}
			return err
		}},
		{"detect/respond", func() error {
			_, err := RunDetection(DetectionScenario{
				Device: DeviceADF, Depth: 64, FloodAllowed: true, FloodRatePPS: 8000,
				Duration: 2 * time.Second, Respond: true, BenignBurstPPS: 200,
			})
			return err
		}},
		{"stateflood/syn", func() error {
			_, err := RunStateflood(StatefloodScenario{FloodRatePPS: 6000, Seed: 3, Duration: time.Second})
			return err
		}},
		{"rfc2544/efw-64-overload", func() error {
			tb, err := BuildTestbed(Scenario{Device: DeviceEFW, Depth: 64, FloodAllowed: true})
			if err != nil {
				return err
			}
			trial := measure.HostThroughputTrial(measure.ThroughputConfig{FrameSize: 64},
				func() (*sim.Kernel, *stack.Host, *stack.Host, error) { return tb.Kernel, tb.Client, tb.Target, nil })
			sent, received, err := trial(20000)
			if err == nil && received >= sent {
				err = errors.New("the trial lost nothing; it must overrun the card")
			}
			return err
		}},
		{"latency/iptables-64", func() error {
			tb, err := BuildTestbed(Scenario{Device: DeviceIPTables, Depth: 64, FloodAllowed: true})
			if err != nil {
				return err
			}
			_, err = measure.RunPingRTT(tb.Kernel, tb.Client, tb.Target)
			return err
		}},
	}
	take := collectTestbeds(t)
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			if err := fam.run(); err != nil {
				t.Fatal(err)
			}
			tbs := take()
			if len(tbs) == 0 {
				t.Fatal("the run built no testbed")
			}
			for _, tb := range tbs {
				checkFramesReleased(t, tb)
			}
		})
	}
}
