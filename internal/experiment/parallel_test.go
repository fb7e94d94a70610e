package experiment

import (
	"bytes"
	"fmt"
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

// TestSweep pins the grid layout every sweep relies on: on a ragged
// grid, cells[r] holds cols[r] values and cells[r][c] is fn(r, c) at
// any worker count, and of two failing cells the lower-declared one's
// error is returned even when the higher one fails first.
func TestSweep(t *testing.T) {
	cols := []int{3, 0, 5, 1}
	for _, workers := range []int{1, 8} {
		cfg := Config{Parallel: workers}
		cells, err := sweep(cfg, cols, func(r, c int) (int, error) { return 10*r + c, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(cols) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(cells), len(cols))
		}
		for r, n := range cols {
			if len(cells[r]) != n {
				t.Fatalf("workers=%d: row %d has %d cells, want %d", workers, r, len(cells[r]), n)
			}
			for c, v := range cells[r] {
				if v != 10*r+c {
					t.Errorf("workers=%d: cells[%d][%d] = %d, want %d", workers, r, c, v, 10*r+c)
				}
			}
		}
		// A row is its own slice: appending to one never overwrites the next.
		_ = append(cells[0], -1)
		if cells[2][0] != 20 {
			t.Errorf("workers=%d: append to row 0 overwrote row 2: %d", workers, cells[2][0])
		}

		_, err = sweep(cfg, cols, func(r, c int) (int, error) {
			switch {
			case r == 0 && c == 2:
				time.Sleep(20 * time.Millisecond) // let the later cell fail first
				return 0, fmt.Errorf("cell %d,%d", r, c)
			case r == 2 && c == 1:
				return 0, fmt.Errorf("cell %d,%d", r, c)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "cell 0,2" {
			t.Errorf("workers=%d: err = %v, want the lower-declared cell 0,2's", workers, err)
		}
	}
}
