package experiment

import (
	"bytes"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// renderEverything runs the paper's headline artifacts plus the NextGen
// depth/flood sweeps and renders markdown plus CSV for each — the byte
// stream the equivalence golden compares across worker counts.
func renderEverything(t *testing.T, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer

	fig2, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig3a, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig3b, err := Fig3b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig2ng, err := Fig2NextGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig3ng, err := Fig3NextGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab1, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, fig := range []*Figure{fig2, fig3a, fig3b, fig2ng, fig3ng} {
		out.WriteString(fig.Markdown())
		if err := fig.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
	}
	out.WriteString(tab1.Markdown())
	if err := tab1.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestParallelEquivalence is the executor's core contract: -parallel 1
// and -parallel 8 must produce byte-identical fig2/fig3a/fig3b/table1
// markdown and CSV artifacts. Every point owns a private kernel seeded
// from the scenario, every threshold search starts cold (each fig3b
// point is its own task; TestThresholdLaw holds it to a standalone
// search), and results reassemble in declaration order — so the only
// acceptable difference between worker counts is wall-clock time.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration; skipped in -short")
	}
	base := Config{Quick: true, Duration: 300 * time.Millisecond}

	serialCfg := base
	serialCfg.Parallel = 1
	serial := renderEverything(t, serialCfg)

	parallelCfg := base
	parallelCfg.Parallel = 8
	parallel := renderEverything(t, parallelCfg)

	if !bytes.Equal(serial, parallel) {
		i := 0
		for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
			i++
		}
		lo, hiS, hiP := max(0, i-80), min(len(serial), i+80), min(len(parallel), i+80)
		t.Fatalf("serial and parallel artifacts diverge at byte %d:\nserial:   …%q…\nparallel: …%q…",
			i, serial[lo:hiS], parallel[lo:hiP])
	}
}

// TestConcurrentPointsRace drives two experiment points through the
// executor at Workers=2 so the race detector (CI runs this file under
// -race) can observe any sharing between concurrently running kernels,
// testbeds, or scratch buffers.
func TestConcurrentPointsRace(t *testing.T) {
	points, err := runner.Map(runner.Pool{Workers: 2}, 2, func(i int) (core.BandwidthPoint, error) {
		return core.RunBandwidth(core.Scenario{
			Device: core.DeviceEFW, Depth: 1 + 63*i, // one cheap point, one deep one
			FloodRatePPS: 4000 * float64(i), FloodAllowed: true,
			Duration: 250 * time.Millisecond,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if p.Iperf.BytesReceived == 0 {
			t.Errorf("point %d moved no bytes", i)
		}
	}
}

// TestAccountingAccumulates checks that experiment runs feed the
// executor accounting: points, simulated seconds, and kernel wall time
// must all be positive after a sweep.
func TestAccountingAccumulates(t *testing.T) {
	var acct Accounting
	cfg := Config{Quick: true, Duration: 250 * time.Millisecond, Account: &acct}
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	points, simSecs, busy := acct.Totals()
	if points == 0 || simSecs <= 0 || busy <= 0 {
		t.Errorf("accounting empty after Fig2: points=%d sim=%.3f busy=%v", points, simSecs, busy)
	}
	// 11 quick points × (0.25 s window + 50 ms drain + handshakes).
	if simSecs < 2 {
		t.Errorf("sim seconds = %.3f, want ≥ 2", simSecs)
	}
}
