package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// ExtensionFragmentEvasion (EXT3) probes the stateless filter's classic
// blind spot (RFC 1858): later IP fragments carry no transport header,
// so the paper's "deny the flood early" mitigation — which doubled the
// required flood rate in Figure 3(b) — only ever stops the *first*
// fragment of each flood packet. The table compares minimum DoS flood
// rates with the flood allowed, denied, and denied-but-fragmented. The
// three searches are independent and run concurrently on the executor.
func ExtensionFragmentEvasion(cfg Config) (*Table, error) {
	device := core.DeviceADF // the deny series the paper could measure
	const depth = 64

	cases := []struct {
		label             string
		allowed, fragment bool
	}{
		{label: "allowed by policy", allowed: true},
		{label: "denied by rule 64", allowed: false},
		{label: "denied + fragmented", allowed: false, fragment: true},
	}

	rows, err := runner.Map(cfg.pool(), len(cases), func(i int) ([]string, error) {
		tc := cases[i]
		r, err := core.MinFloodRate(core.Scenario{
			Device: device, Depth: depth,
			FloodAllowed: tc.allowed, FloodFragmented: tc.fragment,
			Duration: cfg.bandwidthDuration(), Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		cfg.account(r.Probes, r.SimSeconds, r.WallBusy)
		rate := fmt.Sprintf("%.0f", r.RatePPS)
		if !r.Found {
			rate = fmt.Sprintf("none up to %d", core.MaxSearchRatePPS)
		}
		frames := "1 frame/packet"
		if tc.fragment {
			frames = "2 frames/packet"
		}
		return []string{tc.label, rate, frames}, nil
	})
	if err != nil {
		return nil, err
	}

	return &Table{
		Title:   fmt.Sprintf("Extension EXT3: fragment evasion of early deny rules (%v, %d rules)", device, depth),
		Columns: []string{"Flood class", "Min DoS rate (packets/s)", "Wire cost"},
		Rows:    rows,
	}, nil
}
