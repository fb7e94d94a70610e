// DoS attack: the paper's headline experiment. Flood an EFW-protected
// web server at increasing rates, watch the available bandwidth collapse
// while the same flood barely dents a standard NIC, then binary-search
// the minimum flood rate — and reproduce the EFW Deny-All lockup.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"barbican/internal/core"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "== Available bandwidth under flood (64-rule policy, flood allowed) ==")
	for _, device := range []core.Device{core.DeviceStandard, core.DeviceEFW} {
		depth := 64
		if device == core.DeviceStandard {
			depth = 0
		}
		for _, rate := range []float64{0, 2000, 4000, 6000} {
			p, err := core.RunBandwidth(core.Scenario{
				Device: device, Depth: depth,
				FloodRatePPS: rate, FloodAllowed: true,
				Duration: 2 * time.Second,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12v flood %5.0f pps -> %5.1f Mbps\n", device, rate, p.Mbps())
		}
	}

	fmt.Fprintln(w, "\n== Minimum flood rate for denial of service ==")
	for _, tc := range []struct {
		device  core.Device
		depth   int
		allowed bool
	}{
		{core.DeviceEFW, 1, true},
		{core.DeviceEFW, 64, true},
		{core.DeviceADF, 64, false},
		{core.DeviceEFW, 64, false}, // the Deny-All lockup case
	} {
		r, err := core.MinFloodRate(core.Scenario{
			Device: tc.device, Depth: tc.depth, FloodAllowed: tc.allowed,
		})
		if err != nil {
			return err
		}
		mode := "denied"
		if tc.allowed {
			mode = "allowed"
		}
		switch {
		case !r.Found:
			fmt.Fprintf(w, "  %-4v depth %2d (%s): no DoS up to %d pps\n",
				tc.device, tc.depth, mode, core.MaxSearchRatePPS)
		case r.LockedUp:
			fmt.Fprintf(w, "  %-4v depth %2d (%s): ≈%5.0f pps — card LOCKED UP; only an agent restart recovers it\n",
				tc.device, tc.depth, mode, r.RatePPS)
		default:
			fmt.Fprintf(w, "  %-4v depth %2d (%s): ≈%5.0f pps\n", tc.device, tc.depth, mode, r.RatePPS)
		}
	}

	fmt.Fprintln(w, "\nAn attacker on a 100 Mbps segment can trivially reach every one of those rates.")
	return nil
}
