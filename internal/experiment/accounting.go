package experiment

import (
	"fmt"
	"sync"
	"time"

	"barbican/internal/obs"
)

// Accounting accumulates executor-level cost accounting across every
// simulation an experiment run performs: how many measurement points
// ran, how much virtual time they simulated, and how much wall clock
// their kernels burned. Points report from concurrent workers, so the
// accumulator is mutex-guarded — it is the only state experiment points
// share.
type Accounting struct {
	mu         sync.Mutex
	points     int
	simSeconds float64
	wallBusy   time.Duration
}

// Add records points completed measurement points that together
// simulated simSeconds of virtual time over wallBusy of kernel wall
// clock.
func (a *Accounting) Add(points int, simSeconds float64, wallBusy time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.points += points
	a.simSeconds += simSeconds
	a.wallBusy += wallBusy
	a.mu.Unlock()
}

// Totals returns the accumulated counters.
func (a *Accounting) Totals() (points int, simSeconds float64, wallBusy time.Duration) {
	if a == nil {
		return 0, 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.points, a.simSeconds, a.wallBusy
}

// Summary renders the executor's one-line accounting for an experiment
// run that took elapsed wall clock with the given worker count:
// aggregate wall time, point count, total virtual time simulated,
// sim-seconds-per-wall-second, and the per-point speedup (virtual
// seconds simulated per second of kernel wall time — how much faster
// than real time each point ran on average).
func (a *Accounting) Summary(elapsed time.Duration, workers int) string {
	points, simSecs, busy := a.Totals()
	line := fmt.Sprintf("(completed in %v wall clock", elapsed.Round(time.Millisecond))
	if points > 0 {
		line += fmt.Sprintf("; %d points, %.1f sim-s", points, simSecs)
		if elapsed > 0 {
			line += fmt.Sprintf(", %.1f sim-s/wall-s", simSecs/elapsed.Seconds())
		}
		if busy > 0 {
			line += fmt.Sprintf(", %.1fx realtime per point", simSecs/busy.Seconds())
		}
		line += fmt.Sprintf(", parallel=%d", workers)
	}
	return line + ")"
}

// Publish registers the run's accounting on reg so it exports alongside
// the rest of the telemetry artifacts.
func (a *Accounting) Publish(reg *obs.Registry, elapsed time.Duration, workers int) {
	points, simSecs, busy := a.Totals()
	reg.MustRegisterFunc("executor_points_total",
		"Measurement points the experiment executor completed.",
		obs.KindCounter, func() float64 { return float64(points) })
	reg.MustRegisterFunc("executor_sim_seconds_total",
		"Virtual seconds simulated across all points.",
		obs.KindCounter, func() float64 { return simSecs })
	reg.MustRegisterFunc("executor_wall_busy_seconds_total",
		"Kernel wall-clock seconds spent stepping events across all points.",
		obs.KindCounter, func() float64 { return busy.Seconds() })
	reg.MustRegisterFunc("executor_wall_elapsed_seconds",
		"End-to-end wall-clock duration of the experiment run.",
		obs.KindGauge, func() float64 { return elapsed.Seconds() })
	reg.MustRegisterFunc("executor_workers",
		"Worker-pool size the run executed with.",
		obs.KindGauge, func() float64 { return float64(workers) })
}

// WriteArtifacts writes the run's accounting (see Publish) as
// <dir>/executor.snapshot.prom.
func (a *Accounting) WriteArtifacts(dir string, elapsed time.Duration, workers int) error {
	reg := obs.NewRegistry()
	a.Publish(reg, elapsed, workers)
	return writeArtifact(dir, "executor", ".snapshot.prom", reg.WritePromText)
}
