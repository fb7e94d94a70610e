package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// AblationDenyResponses (ABL1) quantifies the paper's explanation for
// the deny-vs-allow doubling: allowed flood packets elicit victim
// responses that transit the card outbound. It measures bandwidth under
// a fixed allowed flood with responses on and off.
func AblationDenyResponses(cfg Config) (*Table, error) {
	const rate = 9000
	// One row per table row: responses enabled, then suppressed.
	points, err := sweep(cfg, rect(2, 1), func(r, _ int) (core.BandwidthPoint, error) {
		suppress := r == 1
		label := "abl1_responses-enabled"
		if suppress {
			label = "abl1_responses-suppressed"
		}
		return bandwidthRuns.point(cfg, "ablations", label, core.Scenario{
			Device: core.DeviceEFW, Depth: 1,
			FloodRatePPS: rate, FloodAllowed: true,
			SuppressFloodResponses: suppress,
			Duration:               cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Ablation ABL1: victim responses double the card's flood load (EFW, 1 rule, 9,000 pps allowed flood)",
		Columns: []string{"Victim responses", "Available bandwidth (Mbps)"},
		Rows: [][]string{
			{"enabled (real stacks)", fmt.Sprintf("%.1f", points[0][0].Mbps())},
			{"suppressed", fmt.Sprintf("%.1f", points[1][0].Mbps())},
		},
	}, nil
}

// AblationVPGLazyDecrypt (ABL2) validates the paper's §4.1 observation:
// the ADF does not decrypt until the matching VPG rule, so non-matching
// VPGs above the action pair are nearly free. Eager decryption would
// make them expensive.
func AblationVPGLazyDecrypt(cfg Config) (*Table, error) {
	depths := []int{1, 4}
	if !cfg.Quick {
		depths = []int{1, 2, 3, 4}
	}
	// Each depth is one row: lazy (the real ADF), then eager.
	points, err := sweep(cfg, rect(len(depths), 2), func(r, c int) (core.BandwidthPoint, error) {
		eager := c == 1
		label := fmt.Sprintf("abl2_depth-%d_lazy", depths[r])
		if eager {
			label = fmt.Sprintf("abl2_depth-%d_eager", depths[r])
		}
		return bandwidthRuns.point(cfg, "ablations", label, core.Scenario{
			Device: core.DeviceADFVPG, Depth: depths[r],
			EagerVPGDecrypt: eager,
			Duration:        cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Ablation ABL2: lazy vs eager VPG decryption (bandwidth, Mbps)",
		Columns: []string{"VPGs before action", "Lazy (real ADF)", "Eager"},
	}
	for r, d := range depths {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d),
			fmt.Sprintf("%.1f", points[r][0].Mbps()),
			fmt.Sprintf("%.1f", points[r][1].Mbps()),
		})
	}
	return t, nil
}

// AblationTrailingRules (ABL3) validates the paper's §3 observation that
// rules after the action rule do not affect performance.
func AblationTrailingRules(cfg Config) (*Table, error) {
	trailing := []int{0, 32}
	if !cfg.Quick {
		trailing = []int{0, 8, 16, 32}
	}
	points, err := runner.Map(cfg.pool(), len(trailing), func(i int) (core.BandwidthPoint, error) {
		return bandwidthRuns.point(cfg, "ablations", fmt.Sprintf("abl3_trailing-%d", trailing[i]), core.Scenario{
			Device: core.DeviceEFW, Depth: 32, TrailingRules: trailing[i],
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation ABL3: rules after the action rule are free (EFW, action at rule 32)",
		Columns: []string{"Trailing rules", "Available bandwidth (Mbps)"},
	}
	for i, n := range trailing {
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.1f", points[i].Mbps())})
	}
	return t, nil
}
