package experiment

import (
	"fmt"

	"barbican/internal/core"
)

// ExtensionHTTPUnderFlood (EXT2) combines Table 1 and Figure 3(a): what
// happens to an interactive service behind the card while an attack is
// in progress? The paper measures raw bandwidth under flood and web
// performance separately; a deployer wants the cross product. Every
// (rate, device) cell is one independent HTTP load run and fans out
// over the executor.
func ExtensionHTTPUnderFlood(cfg Config) (*Table, error) {
	rates := []float64{0, 2000, 4000, 6000}
	if cfg.Quick {
		rates = []float64{0, 4000}
	}
	devices := []core.Device{core.DeviceStandard, core.DeviceEFW}

	points, err := sweep(cfg, rect(len(rates), len(devices)), func(r, c int) (core.HTTPPoint, error) {
		depth := 64
		if devices[c] == core.DeviceStandard {
			depth = 0
		}
		p, err := core.RunHTTP(core.Scenario{
			Device: devices[c], Depth: depth,
			FloodRatePPS: rates[r], FloodAllowed: true,
			Duration: cfg.httpDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return core.HTTPPoint{}, err
		}
		cfg.account(1, p.SimSeconds, p.WallBusy)
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Extension EXT2: web-server performance during a flood (64-rule policy, flood allowed)",
		Columns: []string{"Flood (pps)"},
	}
	for _, d := range devices {
		t.Columns = append(t.Columns, d.String()+" fetches/s", d.String()+" ms/connect")
	}
	for ri, rate := range rates {
		row := []string{fmt.Sprintf("%.0f", rate)}
		for _, p := range points[ri] {
			row = append(row,
				fmt.Sprintf("%.1f", p.Load.FetchesPerSec),
				fmt.Sprintf("%.2f", p.Load.ConnectMs.Mean()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
