package measure_test

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"barbican/internal/measure"
)

// maxProbes is Bisect's probe budget over (lo, hi]: ⌈log2(hi−lo)⌉+1.
func maxProbes(lo, hi int) int { return bits.Len(uint(hi-lo-1)) + 1 }

// bracket maps quick's arbitrary inputs to a search range lo < hi.
func bracket(a uint16, w uint16) (lo, hi int) {
	lo = int(a%1000) - 500
	return lo, lo + 1 + int(w%2000)
}

func TestBisectFindsEveryMonotoneThreshold(t *testing.T) {
	prop := func(a, w, th uint16) bool {
		lo, hi := bracket(a, w)
		want := lo + 1 + int(th)%(hi-lo) // any threshold in (lo, hi]
		probes := 0
		k, found, err := measure.Bisect(lo, hi, func(k int) (bool, error) {
			if k <= lo || k > hi {
				t.Errorf("probe %d outside (%d, %d]", k, lo, hi)
			}
			probes++
			return k >= want, nil
		})
		return err == nil && found && k == want && probes <= maxProbes(lo, hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBisectPassingHiIsOneProbe(t *testing.T) {
	prop := func(a, w uint16) bool {
		lo, hi := bracket(a, w)
		var probed []int
		_, found, err := measure.Bisect(lo, hi, func(k int) (bool, error) {
			probed = append(probed, k)
			return false, nil
		})
		return err == nil && !found && len(probed) == 1 && probed[0] == hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestBisectAnyPredicateReturnsAnEdge: whatever the predicate, the
// answer fails, its left neighbour passed (or is the floor), and the
// probe budget holds.
func TestBisectAnyPredicateReturnsAnEdge(t *testing.T) {
	prop := func(a, w uint16, seed int64) bool {
		lo, hi := bracket(a, w)
		outcome := map[int]bool{}
		k, found, err := measure.Bisect(lo, hi, func(k int) (bool, error) {
			if _, seen := outcome[k]; seen {
				t.Errorf("index %d probed twice", k)
			}
			outcome[k] = rand.New(rand.NewSource(seed^int64(k))).Intn(2) == 0
			return outcome[k], nil
		})
		if err != nil || len(outcome) > maxProbes(lo, hi) {
			return false
		}
		if !found {
			return !outcome[hi] && len(outcome) == 1
		}
		prev, probed := outcome[k-1]
		return outcome[k] && (k-1 == lo || (probed && !prev))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBisectBistableBandIsStable replays the collapse band a 125-pps
// scan of ADF (Deny) at depth 32 shows (seed 1, 2 s window): 9,750 and
// 10,000 pps collapse, 9,875 and 10,125 do not, and everything from
// 10,250 up collapses. A cold search over the flood-rate grid returns
// one edge of that band, the same one on every call.
func TestBisectBistableBandIsStable(t *testing.T) {
	collapses := func(k int) (bool, error) {
		switch rate := k * 125; {
		case rate == 9_750 || rate == 10_000:
			return true, nil
		case rate == 9_875 || rate == 10_125:
			return false, nil
		default:
			return rate >= 10_250, nil
		}
	}
	first, found, err := measure.Bisect(1, 320, collapses)
	if err != nil || !found {
		t.Fatalf("Bisect = %d, %v, %v", first, found, err)
	}
	switch first * 125 {
	case 9_750, 10_000, 10_250:
	default:
		t.Fatalf("Bisect returned %d pps, not an edge of the band", first*125)
	}
	for i := 0; i < 100; i++ {
		if k, _, _ := measure.Bisect(1, 320, collapses); k != first {
			t.Fatalf("call %d returned %d pps, first returned %d", i, k*125, first*125)
		}
	}
}

func TestBisectStopsOnError(t *testing.T) {
	boom := errors.New("probe failed")
	for _, at := range []int{320, 160, 2} {
		probes := 0
		_, found, err := measure.Bisect(1, 320, func(k int) (bool, error) {
			probes++
			if k == at {
				return false, boom
			}
			return k >= 2, nil
		})
		if !errors.Is(err, boom) || found {
			t.Errorf("error at %d: found=%v err=%v", at, found, err)
		}
		if probes > maxProbes(1, 320) {
			t.Errorf("error at %d: %d probes", at, probes)
		}
	}
}
