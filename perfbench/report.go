package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// endToEnd runs the workload untraced until the budget is spent and
// reports the end-to-end metrics, each the median over the runs that
// passed their checks.
func (b *bench) endToEnd(budget time.Duration) (report, error) {
	if err := b.warmUp(); err != nil {
		return report{}, err
	}
	var runs []sample
	for deadline, first := time.Now().Add(budget), true; first || time.Now().Before(deadline); first = false {
		s, err := b.runOnce(nil)
		if b.check(s, err) {
			runs = append(runs, s)
		}
	}
	if len(runs) == 0 {
		return report{}, errors.New("every measured run failed its checks")
	}
	var setup []float64
	for _, s := range runs {
		for _, d := range s.setup {
			setup = append(setup, d.Seconds())
		}
	}
	fmt.Fprintf(b.log, "%s seed %d: %d measured runs of %.0f frames and %v simulated\n",
		b.w.name, b.seed, len(runs), runs[0].frames(), time.Duration(runs[0].out.fp.SimNS))
	return b.report(endToEndMetrics, map[string]float64{
		"sim_rate": medianOf(runs, func(s sample) float64 {
			return time.Duration(s.out.fp.SimNS).Seconds() / s.wall.Seconds()
		}),
		"wall_ns_per_frame":     medianOf(runs, sample.wallPerFrame),
		"allocs_per_frame":      medianOf(runs, func(s sample) float64 { return float64(s.mallocs) / s.frames() }),
		"alloc_bytes_per_frame": medianOf(runs, func(s sample) float64 { return float64(s.bytes) / s.frames() }),
		"heap_live_bytes":       medianOf(runs, func(s sample) float64 { return float64(s.heapLive) }),
		"setup_s":               median(setup),
	})
}

// report assembles the result line from the measured values, one per
// spec, and logs them.
func (b *bench) report(specs []metricSpec, values map[string]float64) (report, error) {
	r := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(b.log, "  %-34s %16.6g %s\n", m.name, v, m.unit)
	}
	return r, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(runs []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return median(xs)
}
