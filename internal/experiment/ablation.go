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
	run := func(suppress bool) func() (core.BandwidthPoint, error) {
		return func() (core.BandwidthPoint, error) {
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
		}
	}
	points, err := runner.Funcs(cfg.pool(), run(false), run(true))
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Ablation ABL1: victim responses double the card's flood load (EFW, 1 rule, 9,000 pps allowed flood)",
		Columns: []string{"Victim responses", "Available bandwidth (Mbps)"},
		Rows: [][]string{
			{"enabled (real stacks)", fmt.Sprintf("%.1f", points[0].Mbps())},
			{"suppressed", fmt.Sprintf("%.1f", points[1].Mbps())},
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
	type task struct {
		depth int
		eager bool
	}
	var tasks []task
	for _, d := range depths {
		tasks = append(tasks, task{depth: d}, task{depth: d, eager: true})
	}
	points, err := runner.Map(cfg.pool(), len(tasks), func(i int) (core.BandwidthPoint, error) {
		label := fmt.Sprintf("abl2_depth-%d_lazy", tasks[i].depth)
		if tasks[i].eager {
			label = fmt.Sprintf("abl2_depth-%d_eager", tasks[i].depth)
		}
		return bandwidthRuns.point(cfg, "ablations", label, core.Scenario{
			Device: core.DeviceADFVPG, Depth: tasks[i].depth,
			EagerVPGDecrypt: tasks[i].eager,
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
	for i, d := range depths {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d),
			fmt.Sprintf("%.1f", points[2*i].Mbps()),
			fmt.Sprintf("%.1f", points[2*i+1].Mbps()),
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
