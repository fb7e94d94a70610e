package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"
)

// setupReps is how many times each run builds its scenario. Set-up takes
// well under a millisecond, so one build per run gives too few samples
// for a steady median; only the last build is simulated.
const setupReps = 16

// bench is one benchmark invocation: a workload, its seed and the
// simulated window of each run, plus the tally of checked runs.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	log    io.Writer

	// pinned is the fingerprint every run must reproduce, known for the
	// default seed and window only; first is the first run's, which
	// every later run must repeat.
	pinned *fingerprint
	first  *fingerprint

	// tiny reads the runtime's count of tiny allocations packed into a
	// shared block: counted in MemStats.Mallocs, but invisible to the
	// allocation profile.
	tiny []metrics.Sample

	attempted, failed int
}

func newBench(w *workload, seed int64, window time.Duration, log io.Writer) (*bench, error) {
	b := &bench{
		w: w, seed: seed, window: window, log: log,
		tiny: []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}},
	}
	if seed == defaultSeed && window == benchWindow {
		fp, err := pinnedFingerprint(w.name)
		if err != nil {
			return nil, err
		}
		b.pinned = &fp
	}
	return b, nil
}

//go:embed fingerprints.json
var pinnedJSON []byte

// pinnedFingerprint returns the workload's default-seed fingerprint.
func pinnedFingerprint(name string) (fingerprint, error) {
	var all map[string]fingerprint
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return fingerprint{}, fmt.Errorf("fingerprints.json: %w", err)
	}
	fp, ok := all[name]
	if !ok {
		return fingerprint{}, fmt.Errorf("fingerprints.json pins nothing for %s", name)
	}
	return fp, nil
}

// sample is what one run measured.
type sample struct {
	setup    []time.Duration
	wall     time.Duration // simulating the built scenario to its end
	mallocs  uint64        // heap objects allocated while simulating
	bytes    uint64        // heap bytes allocated while simulating
	tiny     uint64        // of mallocs, tiny allocations packed into a shared block
	heapLive uint64        // live heap after a collection, scenario still reachable
	out      outcome
}

func (s sample) frames() float64 { return float64(s.out.fp.Frames) }

func (s sample) wallPerFrame() float64 { return float64(s.wall.Nanoseconds()) / s.frames() }

// hooks attach a traced run's instruments. start runs after the scenario
// is built and before its clock starts, stop after it has finished;
// neither is timed.
type hooks struct {
	start func(*scenario) error
	stop  func(*scenario) error
}

// runOnce is one closed-loop run: build the scenario setupReps times,
// simulate the last build to its end, and read its outcome.
func (b *bench) runOnce(h *hooks) (sample, error) {
	var s sample
	var sc *scenario
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		built, err := b.w.build(b.seed, b.window)
		if err != nil {
			return s, fmt.Errorf("set up: %w", err)
		}
		s.setup = append(s.setup, time.Since(t0))
		sc = built
	}
	if h != nil {
		if err := h.start(sc); err != nil {
			return s, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tiny0 := b.tinyAllocs()
	t0 := time.Now()
	err := sc.run()
	s.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	s.tiny = b.tinyAllocs() - tiny0
	if h != nil {
		if serr := h.stop(sc); err == nil {
			err = serr
		}
	}
	if err != nil {
		return s, fmt.Errorf("simulate: %w", err)
	}
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	s.out = sc.outcome()
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.heapLive = after.HeapAlloc
	runtime.KeepAlive(sc)
	return s, nil
}

// tinyAllocs reads the packed tiny allocation count. Called right after
// ReadMemStats, which flushes every P's allocation cache, it is exact.
func (b *bench) tinyAllocs() uint64 {
	metrics.Read(b.tiny)
	return b.tiny[0].Value.Uint64()
}

// check counts one run and reports whether it passed, logging what it
// failed: the simulation's own error, a conservation law, the workload's
// regime, determinism against the first run, or the pinned fingerprint.
func (b *bench) check(s sample, err error) bool {
	b.attempted++
	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	} else {
		problems = append(problems, s.out.violations...)
		if err := b.w.regime(s.out); err != nil {
			problems = append(problems, "regime: "+err.Error())
		}
		fp := s.out.fp
		if b.first == nil {
			b.first = &fp
		} else if !reflect.DeepEqual(fp, *b.first) {
			problems = append(problems, fmt.Sprintf("determinism: fingerprint %s differs from the first run's %s", asJSON(fp), asJSON(*b.first)))
		}
		if b.pinned != nil && !reflect.DeepEqual(fp, *b.pinned) {
			problems = append(problems, fmt.Sprintf("fingerprint %s differs from the pinned %s", asJSON(fp), asJSON(*b.pinned)))
		}
	}
	if len(problems) == 0 {
		return true
	}
	b.failed++
	for _, p := range problems {
		fmt.Fprintf(b.log, "perfbench: %s seed %d run %d: %s\n", b.w.name, b.seed, b.attempted, p)
	}
	return false
}

func asJSON(fp fingerprint) string {
	data, _ := json.Marshal(fp) // numbers, strings and slices of them always encode
	return string(data)
}

// warmUp runs the workload once, checked but not measured, so code,
// caches, pools and the heap are warm before timing starts.
func (b *bench) warmUp() error {
	s, err := b.runOnce(nil)
	b.check(s, err)
	return err
}
