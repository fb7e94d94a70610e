package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"barbican/internal/measure"
	"barbican/internal/nic"
	"barbican/internal/obs/profile"
)

// TestCostProfileReconciles holds every enforcement point's exported
// cost units to its processor's UnitsDone, within the rounding of each
// sample: one flooded point per device in the device table, plus a SYN
// and an ACK flood on the stateful card. Walk-priced, compiled,
// cached, conntrack and host-filter work must all be in the profile.
func TestCostProfileReconciles(t *testing.T) {
	opt := ObserveOptions{Profile: &profile.Options{}}
	type point struct {
		name string
		run  func() (*Instrumentation, error)
	}
	var points []point
	for d := DeviceStandard; int(d) < len(devices); d++ {
		depth := 16
		if d == DeviceADFVPG {
			depth = 4
		}
		points = append(points, point{devices[d].name, func() (*Instrumentation, error) {
			_, inst, err := RunBandwidthObserved(Scenario{
				Device: d, Depth: depth, FloodRatePPS: 8000, FloodAllowed: true,
				Duration: 200 * time.Millisecond,
			}, opt)
			return inst, err
		}})
	}
	for _, f := range []struct {
		name string
		kind measure.FloodKind
	}{{"stateful-syn", measure.FloodTCPSYN}, {"stateful-ack", measure.FloodTCPACK}} {
		points = append(points, point{f.name, func() (*Instrumentation, error) {
			_, inst, err := RunStatefloodObserved(StatefloodScenario{
				FloodRatePPS: 20000, FloodKind: f.kind, Duration: 200 * time.Millisecond,
			}, opt)
			return inst, err
		}})
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			inst, err := pt.run()
			if err != nil {
				t.Fatal(err)
			}
			units := map[string]int64{}
			samples := map[string]int{}
			for _, s := range inst.Profiling.CostData().Samples {
				units[s.Stack[0]] += s.Values[0]
				samples[s.Stack[0]]++
			}
			check := func(host string, p *nic.Processor, prof nic.Profile) {
				label := fmt.Sprintf("%s (%s)", host, prof.Name)
				done := p.UnitsDone()
				if diff := math.Abs(float64(units[label]) - done); diff > 0.5*float64(samples[label]) {
					t.Errorf("%s: profile %d units over %d samples, processor %.1f", label, units[label], samples[label], done)
				}
				delete(units, label)
			}
			total := 0.0
			for i, h := range inst.Profiling.tb.hosts() {
				check(testbedHostNames[i], h.NIC().Processor(), h.NIC().Profile())
				total += h.NIC().Processor().UnitsDone()
				if hf := h.Firewall(); hf != nil {
					check(testbedHostNames[i], hf.Processor(), hf.Profile())
					total += hf.Processor().UnitsDone()
				}
			}
			for label := range units {
				t.Errorf("profile stack %q belongs to no enforcement point", label)
			}
			if total == 0 && pt.name != "standard" {
				t.Error("no enforcement point did any work")
			}
		})
	}
}
