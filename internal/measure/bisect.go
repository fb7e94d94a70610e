package measure

// Bisect returns the lowest index in (lo, hi] at which fails reports
// true, by bisection over the integer grid. It probes hi first; if hi
// passes, no index in range fails and found is false after that one
// probe. lo itself is taken as passing and never probed. Every threshold
// search in the simulator is one Bisect over its own grid, started cold:
// the answer depends only on the predicate, never on a neighbouring
// search. For a monotone predicate that is the exact threshold; for one
// that flips more than once, it is one edge of the flipping band, and
// always the same edge. Bisect makes at most ⌈log2(hi−lo)⌉+1 probes.
func Bisect(lo, hi int, fails func(k int) (bool, error)) (k int, found bool, err error) {
	if failed, err := fails(hi); err != nil || !failed {
		return 0, false, err
	}
	// Invariant: lo passes (or is the untested floor), hi fails.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		failed, err := fails(mid)
		if err != nil {
			return 0, false, err
		}
		if failed {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
