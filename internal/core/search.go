package core

import (
	"time"

	"barbican/internal/measure"
)

// DoSThresholdMbps is the paper's denial-of-service criterion: the
// bandwidth measurement "fell to approximately 0 Mbps" — here read as
// under 2.5% of the network's nominal 100 Mbps.
const DoSThresholdMbps = 2.5

// The flood-rate grid every minimum-rate search walks, in packets per
// second: MinSearchRatePPS to MaxSearchRatePPS in SearchResolutionPPS
// steps.
const (
	MinSearchRatePPS    = 250
	MaxSearchRatePPS    = 40_000
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
// for the scenario: the grid rate a cold bisection of the flood-rate
// grid returns (see minFloodRate). The scenario's FloodRatePPS field is
// ignored; each probe builds a fresh testbed so probes are independent
// and deterministic.
func MinFloodRate(s Scenario) (MinFloodResult, error) {
	if s.Duration == 0 {
		s.Duration = 2 * time.Second // probes trade window length for search depth
	}
	return minFloodRate(func(rate float64) (bool, Outcome, error) {
		sc := s
		sc.FloodRatePPS = rate
		p, err := RunBandwidth(sc)
		// A wedged card is a successful denial of service even if some
		// bytes moved before it locked up.
		return p.Mbps() < DoSThresholdMbps || p.TargetLocked, p.Outcome, err
	})
}

// minFloodRate is the one flood-rate search: measure.Bisect over the
// grid for the lowest rate at which probe reports denial of service.
// The answer depends on the probe alone. Where the DoS predicate flips
// more than once near the threshold, it is one edge of that band, the
// same edge for the same scenario and seed.
func minFloodRate(probe func(rate float64) (dos bool, out Outcome, err error)) (MinFloodResult, error) {
	var res MinFloodResult
	k, found, err := measure.Bisect(MinSearchRatePPS/SearchResolutionPPS-1, MaxSearchRatePPS/SearchResolutionPPS,
		func(k int) (bool, error) {
			dos, out, err := probe(float64(k * SearchResolutionPPS))
			if err != nil {
				return false, err
			}
			res.Probes++
			res.SimSeconds += out.SimSeconds
			res.WallBusy += out.WallBusy
			if dos {
				// The last DoS probe is the answer.
				res.LockedUp = out.TargetLocked
			}
			return dos, nil
		})
	res.Found = found
	res.RatePPS = float64(k * SearchResolutionPPS)
	return res, err
}
