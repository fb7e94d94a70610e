package core

import "time"

// DoSThresholdMbps is the paper's denial-of-service criterion: the
// bandwidth measurement "fell to approximately 0 Mbps" — here read as
// under 2.5% of the network's nominal 100 Mbps.
const DoSThresholdMbps = 2.5

// Search bounds for the minimum flood rate, in packets per second.
const (
	MinSearchRatePPS = 250
	MaxSearchRatePPS = 40_000
	// SearchResolutionPPS is the binary search's terminal interval.
	SearchResolutionPPS = 125
)

// MinFloodResult reports a minimum-flood-rate search.
type MinFloodResult struct {
	// Found reports whether any rate within the search bounds caused
	// denial of service.
	Found bool
	// RatePPS is the minimum flood rate that did.
	RatePPS float64
	// LockedUp reports that the card wedged during the successful flood
	// (the EFW Deny-All failure); the paper could not record data for
	// this case because the card required an agent restart.
	LockedUp bool
	// Probes counts the measurements the search ran.
	Probes int
	// SimSeconds and WallBusy accumulate the probes' virtual time and
	// wall-clock cost for the executor's speedup accounting.
	SimSeconds float64
	WallBusy   time.Duration
}

// MinFloodRate finds the minimum flood rate causing denial of service
// for the scenario by binary search over the flood rate. The scenario's
// FloodRatePPS field is ignored; each probe builds a fresh testbed so
// probes are independent and deterministic.
func MinFloodRate(s Scenario) (MinFloodResult, error) {
	return MinFloodRateFrom(s, 0)
}

// MinFloodRateFrom is MinFloodRate warm-started from a neighboring
// result. A positive hint (typically the threshold found at the previous
// rule-set depth) seeds the bisection bracket by galloping outward from
// the hint instead of probing the full search bounds, cutting probe
// count when adjacent depths have nearby thresholds — which Figure 3(b)'s
// sweep structure guarantees. hint <= 0 runs the cold search.
func MinFloodRateFrom(s Scenario, hint float64) (MinFloodResult, error) {
	if s.Duration == 0 {
		s.Duration = 2 * time.Second // probes trade window length for search depth
	}
	return minFloodRate(hint, func(rate float64) (bool, Outcome, error) {
		sc := s
		sc.FloodRatePPS = rate
		p, err := RunBandwidth(sc)
		// A wedged card is a successful denial of service even if some
		// bytes moved before it locked up.
		return p.Mbps() < DoSThresholdMbps || p.TargetLocked, p.Outcome, err
	})
}

// minFloodRate is the one flood-rate search: a bisection over
// [MinSearchRatePPS, MaxSearchRatePPS] down to SearchResolutionPPS for
// the lowest rate at which probe reports denial of service. A positive
// hint brackets the threshold by galloping outward from it first.
func minFloodRate(hint float64, probe func(rate float64) (dos bool, out Outcome, err error)) (MinFloodResult, error) {
	var res MinFloodResult
	try := func(rate float64) (bool, bool, error) {
		dos, out, err := probe(rate)
		if err != nil {
			return false, false, err
		}
		res.Probes++
		res.SimSeconds += out.SimSeconds
		res.WallBusy += out.WallBusy
		return dos, out.TargetLocked, nil
	}

	var lo, hi float64
	if hint > 0 {
		// Warm start: bracket the threshold by galloping outward from the
		// hint. Each direction doubles its distance from the hint until the
		// probe outcome flips or the cold bound is reached.
		lo, hi = hint, hint
		if lo < MinSearchRatePPS {
			lo = MinSearchRatePPS
		}
		if hi > MaxSearchRatePPS {
			hi = MaxSearchRatePPS
		}
		ok, locked, err := try(hi)
		if err != nil {
			return res, err
		}
		step := float64(SearchResolutionPPS)
		if ok {
			// The hint already causes DoS: gallop down for a non-DoS lo.
			res.Found = true
			res.LockedUp = locked
			for {
				lo = hi - step
				if lo <= MinSearchRatePPS {
					lo = MinSearchRatePPS
				}
				ok2, locked2, err := try(lo)
				if err != nil {
					return res, err
				}
				if !ok2 {
					break
				}
				hi = lo
				res.LockedUp = locked2
				if lo == MinSearchRatePPS {
					// Even the floor rate causes DoS.
					res.RatePPS = lo
					return res, nil
				}
				step *= 2
			}
		} else {
			// The hint does not cause DoS: gallop up for a DoS hi.
			for {
				hi = lo + step
				if hi >= MaxSearchRatePPS {
					hi = MaxSearchRatePPS
				}
				ok2, locked2, err := try(hi)
				if err != nil {
					return res, err
				}
				if ok2 {
					res.Found = true
					res.LockedUp = locked2
					break
				}
				lo = hi
				if hi == MaxSearchRatePPS {
					return res, nil // not even the maximum rate causes DoS
				}
				step *= 2
			}
		}
	} else {
		lo, hi = float64(MinSearchRatePPS), float64(MaxSearchRatePPS)
		ok, locked, err := try(hi)
		if err != nil {
			return res, err
		}
		if !ok {
			return res, nil // not even the maximum rate causes DoS
		}
		res.Found = true
		res.LockedUp = locked
		// Invariant: hi causes DoS, lo does not (or lo is the lower bound).
		if ok2, locked2, err := try(lo); err != nil {
			return res, err
		} else if ok2 {
			res.RatePPS = lo
			res.LockedUp = locked2
			return res, nil
		}
	}
	for hi-lo > SearchResolutionPPS {
		mid := (lo + hi) / 2
		ok, locked, err := try(mid)
		if err != nil {
			return res, err
		}
		if ok {
			hi = mid
			res.LockedUp = locked
		} else {
			lo = mid
		}
	}
	res.RatePPS = hi
	return res, nil
}
