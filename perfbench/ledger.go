package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"barbican/internal/obs/profile"
)

const (
	// ledgerBound is the largest |ledger.unattributed_ratio| a traced run
	// accepts: the share of traced wall time spent outside the kernel's
	// run loop, which no layer owns.
	ledgerBound = 0.05
	// allocLedgerBound bounds how far the allocation profile plus the
	// runtime's packed tiny allocations may miss the run's mallocs.
	allocLedgerBound = 0.01
	// otherShareBound caps the share of kernel wall time spent in event
	// handlers that belong to no simulator layer, the benchmark's own
	// closures; TestHandlerSymbolsMapToLayers enforces it.
	otherShareBound = 0.02
	// cpuProfileHz is the traced runs' CPU sampling rate, five times the
	// runtime's default, so each handler's span is split over enough
	// samples.
	cpuProfileHz = 500
)

// spanProbe times every kernel event handler with the step profiler
// (sampling 1 in 1) and records a CPU profile over the same run.
type spanProbe struct {
	kp       *profile.KernelProfiler
	buf      bytes.Buffer
	cpu      *profile.Data
	wallBusy time.Duration
}

func (p *spanProbe) hooks() *hooks {
	return &hooks{
		start: func(sc *scenario) error {
			p.kp = profile.NewKernelProfiler(1)
			sc.tb.Kernel.SetStepProfiler(p.kp)
			// runtime/pprof takes a non-default rate only when it is set
			// first; the runtime logs a warning that it was.
			runtime.SetCPUProfileRate(cpuProfileHz)
			return pprof.StartCPUProfile(&p.buf)
		},
		stop: func(sc *scenario) error {
			pprof.StopCPUProfile()
			sc.tb.Kernel.SetStepProfiler(nil)
			p.wallBusy = sc.tb.Kernel.WallBusy()
			d, err := profile.ReadPprof(&p.buf)
			if err != nil {
				return fmt.Errorf("decode CPU profile: %w", err)
			}
			p.cpu = d
			return nil
		},
	}
}

// allocProbe profiles every allocation of one run (MemProfileRate 1) and
// snapshots the allocation profile on both sides of it.
type allocProbe struct {
	rate          int
	before, after *profile.Data
}

func (p *allocProbe) hooks() *hooks {
	return &hooks{
		start: func(*scenario) error {
			p.rate = runtime.MemProfileRate
			runtime.MemProfileRate = 1
			var err error
			p.before, err = allocProfile()
			return err
		},
		stop: func(*scenario) error {
			defer func() { runtime.MemProfileRate = p.rate }()
			var err error
			p.after, err = allocProfile()
			return err
		},
	}
}

// allocProfile snapshots the allocation profile. The collection first
// publishes every allocation made before it.
func allocProfile() (*profile.Data, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("write allocation profile: %w", err)
	}
	d, err := profile.ReadPprof(&buf)
	if err != nil {
		return nil, fmt.Errorf("decode allocation profile: %w", err)
	}
	return d, nil
}

// ledger runs the workload traced and reports the per-layer metrics.
// One allocation-profiled run charges allocations to layers; the counts
// repeat exactly run to run, so one run suffices. Untraced and
// span-traced runs then alternate until the budget is spent, so the
// trace overhead compares runs made under the same machine conditions.
func (b *bench) ledger(budget time.Duration) (report, error) {
	if err := b.warmUp(); err != nil {
		return report{}, err
	}
	deadline := time.Now().Add(budget)
	var ap allocProbe
	as, err := b.runOnce(ap.hooks())
	b.check(as, err)
	if err != nil {
		return report{}, err
	}
	allocs, err := allocsByLayer(ap.before, ap.after)
	if err != nil {
		return report{}, err
	}

	var plain []float64 // untraced wall ns per frame
	var t timeLedger
	for first := true; first || time.Now().Before(deadline); first = false {
		s, err := b.runOnce(nil)
		if b.check(s, err) {
			plain = append(plain, s.wallPerFrame())
		}
		var sp spanProbe
		s, err = b.runOnce(sp.hooks())
		if b.check(s, err) {
			if err := t.add(s, &sp); err != nil {
				return report{}, err
			}
		}
	}
	if t.runs == 0 || len(plain) == 0 {
		return report{}, errors.New("every timed run failed its checks")
	}

	o, frames := as.out, as.frames()
	values := map[string]float64{
		"sim.events_per_frame":          float64(o.fp.Events) / frames,
		"fw.rules_walked_per_frame":     float64(o.walked) / frames,
		"conntrack.evictions_per_frame": float64(o.fp.Conntrack.Evicted) / frames,
		"nic.flowcache_hit_ratio":       0,
		"vpg.crypto_ops_per_frame":      float64(o.cryptoOps()) / frames,
		"trace.overhead_ratio":          median(t.perFrame)/median(plain) - 1,
		"trace.wall_ns_per_frame":       t.wall / t.frames,
		"trace.allocs_per_frame":        float64(as.mallocs) / frames,
	}
	if o.cacheLookups > 0 {
		values["nic.flowcache_hit_ratio"] = float64(o.cacheHits) / float64(o.cacheLookups)
	}
	var nsSum, allocSum float64
	for i, l := range layers {
		values[l+".ns_per_frame"] = t.ns[i] / t.frames
		values[l+".allocs_per_frame"] = allocs[i] / frames
		nsSum += t.ns[i]
		allocSum += allocs[i]
	}
	unattributed := 1 - nsSum/t.wall
	allocUnattributed := 1 - allocSum/float64(as.mallocs)
	values["ledger.unattributed_ratio"] = unattributed
	values["ledger.alloc_unattributed_ratio"] = allocUnattributed

	fmt.Fprintf(b.log, "%s seed %d: ledger over %d traced and %d untraced runs of %.0f frames\n",
		b.w.name, b.seed, t.runs, len(plain), frames)
	r, err := b.report(perLayerMetrics(), values)
	if err != nil {
		return report{}, err
	}
	if math.Abs(unattributed) > ledgerBound {
		fmt.Fprintf(b.log, "perfbench: %s: layers add up to %.2f%% of traced wall time, outside ±%.0f%%\n",
			b.w.name, 100*nsSum/t.wall, 100*ledgerBound)
		r.Correct = false
	}
	// Tiny allocations packed into an existing block skip the profiler,
	// so they are the allocations no layer can be charged with.
	tinyShare := float64(as.tiny) / float64(as.mallocs)
	fmt.Fprintf(b.log, "  of which packed tiny allocations %.4f\n", tinyShare)
	if math.Abs(allocUnattributed-tinyShare) > allocLedgerBound {
		fmt.Fprintf(b.log, "perfbench: %s: layers plus packed tiny allocations add up to %.2f%% of traced allocations, outside ±%.0f%%\n",
			b.w.name, 100*(allocSum+float64(as.tiny))/float64(as.mallocs), 100*allocLedgerBound)
		r.Correct = false
	}
	return r, nil
}
