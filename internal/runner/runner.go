// Package runner executes independent experiment points in parallel.
//
// Every experiment in this repository decomposes into points that share
// nothing: each point builds its own sim.Kernel, testbed, and rule-set,
// so points can run on separate OS threads without any synchronization
// beyond the result hand-off. The executor here fans a task list over a
// GOMAXPROCS-sized worker pool that claims task indexes from one
// shared atomic cursor (experiment points have wildly uneven costs — a
// no-flood bandwidth point finishes an order of magnitude before a
// minimum-flood-rate search — so static partitioning would leave
// workers idle), then reassembles the results in declaration order.
// Serial and parallel execution therefore produce byte-identical
// output: the only thing parallelism changes is which wall-clock
// instant each deterministic simulation runs at.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool sizes the worker set for Map.
type Pool struct {
	// Workers is the maximum number of tasks run concurrently; <= 0
	// means runtime.GOMAXPROCS(0). 1 runs every task serially on the
	// caller's goroutine, reproducing pre-executor behavior exactly.
	Workers int
}

func (p Pool) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// Map runs fn(0) … fn(n-1) on the pool's workers and returns the
// results in index order. Task order in the result is always the
// declaration order 0..n-1 regardless of completion order, so callers
// get deterministic output for deterministic tasks.
//
// On failure Map returns the error of the lowest-indexed failing task —
// deterministically, for deterministic tasks: indexes are claimed in
// ascending order, so by the time index m fails every index below m
// has been claimed and still runs, while unstarted tasks above m are
// skipped. A lower-indexed failure therefore always surfaces over a
// higher-indexed one no matter which worker hit its error first.
func Map[T any](p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	res := make([]T, n)
	if n == 0 {
		return res, nil
	}
	w := p.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			res[i] = v
		}
		return res, nil
	}

	// Workers claim indexes from one shared cursor, in ascending order:
	// a worker that finishes a cheap task simply takes the next one, so
	// uneven task costs still keep every worker busy.
	var cursor atomic.Int64
	var minFail atomic.Int64 // lowest failing index so far; n = none
	minFail.Store(int64(n))
	errs := make([]error, n) // each index is claimed once, so no lock
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n || int64(i) >= minFail.Load() {
					return // done, or every index left is doomed by an earlier failure
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						m := minFail.Load()
						if int64(i) >= m || minFail.CompareAndSwap(m, int64(i)) {
							break
						}
					}
					continue
				}
				res[i] = v
			}
		}()
	}
	wg.Wait()
	if m := minFail.Load(); m < int64(n) {
		return nil, errs[m]
	}
	return res, nil
}
