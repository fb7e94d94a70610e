package experiment

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/measure"
	"barbican/internal/nic/conntrack"
	"barbican/internal/runner"
)

// lawCheck pairs one printed threshold with a standalone search of the
// scenario it claims to measure.
type lawCheck struct {
	name, printed string
	search        func() (string, error)
}

// floodCell renders a minimum-flood-rate search as a figure point does.
func floodCell(r core.MinFloodResult) string {
	switch {
	case !r.Found:
		return "no DoS found"
	case r.LockedUp:
		return fmt.Sprintf("%.1f LOCKUP", r.RatePPS)
	}
	return fmt.Sprintf("%.1f", r.RatePPS)
}

// TestThresholdLaw: a printed threshold is a function of its scenario
// and seed alone. Every fig3b, fig3ng, stateflood-threshold and APX1
// point at quick size equals a standalone search of that scenario, and
// sweeping fig3b and fig3ng in reverse depth and class order prints
// the same figure.
func TestThresholdLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns every quick threshold search; skipped in -short")
	}
	var checks []lawCheck

	// Figures: the 300 ms window TestParallelEquivalence uses.
	figCfg := Config{Quick: true, Duration: 300 * time.Millisecond}
	classes := map[string]floodClass{}
	for _, d := range []core.Device{core.DeviceEFW, core.DeviceADF, core.DeviceNextGen} {
		for _, allowed := range []bool{true, false} {
			c := floodClass{Device: d, Allowed: allowed}
			classes[c.Label()] = c
		}
	}
	for _, build := range []func(Config) (*Figure, error){Fig3b, Fig3NextGen} {
		fig, err := build(figCfg)
		if err != nil {
			t.Fatal(err)
		}
		var order []floodClass
		var depths []int
		for _, s := range fig.Series {
			class, ok := classes[s.Label]
			if !ok {
				t.Fatalf("%s: unknown class %q", fig.Title, s.Label)
			}
			order = append(order, class)
			depths = depths[:0]
			for _, p := range s.Points {
				depths = append(depths, int(p.X))
				sc := core.Scenario{
					Device: class.Device, Depth: int(p.X), FloodAllowed: class.Allowed,
					Duration: figCfg.bandwidthDuration(), Seed: figCfg.Seed,
				}
				checks = append(checks, lawCheck{
					name:    fmt.Sprintf("%s, %s depth %d", fig.Title, s.Label, sc.Depth),
					printed: floodCell(core.MinFloodResult{Found: p.Note != "no DoS found", LockedUp: p.Note == "LOCKUP", RatePPS: p.Y}),
					search: func() (string, error) {
						r, err := core.MinFloodRate(sc)
						return floodCell(r), err
					},
				})
			}
		}

		slices.Reverse(order)
		slices.Reverse(depths)
		rev, err := minFloodRateVsDepth(figCfg, fig.Title, depths, order)
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(rev.Series)
		for _, s := range rev.Series {
			slices.Reverse(s.Points)
		}
		if !reflect.DeepEqual(fig, rev) {
			t.Errorf("%s changes when depths and classes are swept in reverse:\n%s\nreversed:\n%s",
				fig.Title, fig.Render(), rev.Render())
		}
	}

	// The stateflood threshold table, row by row, against core.
	cfg := Config{Quick: true}
	statefloodSearch := map[string]func() (core.MinFloodResult, error){
		"SYN flood / evict lru": func() (core.MinFloodResult, error) {
			return core.MinStatefloodRate(cfg.statefloodScenario(measure.FloodTCPSYN, conntrack.EvictLRU, 0))
		},
		"SYN flood / evict syn-drop": func() (core.MinFloodResult, error) {
			return core.MinStatefloodRate(cfg.statefloodScenario(measure.FloodTCPSYN, conntrack.EvictSYNDrop, 0))
		},
		"UDP flood / stateless policy (bandwidth criterion)": func() (core.MinFloodResult, error) {
			return core.MinFloodRate(core.Scenario{
				Device: core.DeviceStateful, Depth: 64, FloodAllowed: true,
				Seed: cfg.Seed, Duration: cfg.statefloodDuration(),
			})
		},
	}
	tab, err := StatefloodThresholds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		search, ok := statefloodSearch[row[0]]
		if !ok {
			t.Fatalf("stateflood: no standalone search for row %q", row[0])
		}
		checks = append(checks, lawCheck{
			name:    "stateflood " + row[0],
			printed: row[1] + " in " + row[2] + " probes",
			search: func() (string, error) {
				r, err := search()
				rate := fmt.Sprintf("> %d", core.MaxSearchRatePPS)
				if r.Found {
					rate = fmt.Sprintf("%.0f", r.RatePPS)
				}
				return fmt.Sprintf("%s in %d probes", rate, r.Probes), err
			},
		})
	}

	// APX1, cell by cell, against rfc2544Point.
	devices := map[string]struct {
		dev   core.Device
		depth int
	}{
		"Standard NIC": {core.DeviceStandard, 0},
		"EFW 1":        {core.DeviceEFW, 1},
		"EFW 64":       {core.DeviceEFW, 64},
		"ADF 64":       {core.DeviceADF, 64},
	}
	apx, err := AppendixRFC2544(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range apx.Rows[:len(apx.Rows)-1] { // the last row is the footnote
		size, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		for ci, cell := range row[1:] {
			d, ok := devices[apx.Columns[ci+1]]
			if !ok {
				t.Fatalf("APX1: unknown column %q", apx.Columns[ci+1])
			}
			checks = append(checks, lawCheck{
				name:    fmt.Sprintf("APX1 %s %d-byte", apx.Columns[ci+1], size),
				printed: cell,
				search: func() (string, error) {
					res, err := rfc2544Point(cfg, d.dev, d.depth, size)
					if res.LineRateLimited {
						return fmt.Sprintf("%.0f*", res.FramesPerSec), err
					}
					return fmt.Sprintf("%.0f", res.FramesPerSec), err
				},
			})
		}
	}

	if len(checks) == 0 {
		t.Fatal("no thresholds checked")
	}
	standalone, err := runner.Map(runner.Pool{}, len(checks), func(i int) (string, error) {
		return checks[i].search()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range checks {
		if c.printed != standalone[i] {
			t.Errorf("%s: printed %s, standalone search %s", c.name, c.printed, standalone[i])
		}
	}
}
