package telemetry

import "time"

// AlertState is the per-device flood-detection state machine driven by
// the collector's detector. Transitions are recorded in virtual time;
// the flood-start → AlertAlerting interval is the plane's headline
// time-to-detect metric.
type AlertState uint8

const (
	// AlertHealthy: signal tracks the EWMA baseline; the detector keeps
	// learning what "normal" looks like.
	AlertHealthy AlertState = iota
	// AlertSuspect: one hot sample seen; baseline learning is frozen so
	// an onset can't raise its own threshold. Needs detectRiseCount
	// consecutive hot samples to alert, one calm sample to clear.
	AlertSuspect
	// AlertAlerting: sustained anomaly. Entry timestamp is the
	// detection instant.
	AlertAlerting
	// AlertRecovering: signal back under the clear threshold; needs
	// detectFallCount consecutive calm samples before declaring healthy —
	// hysteresis against flapping on a sputtering flood.
	AlertRecovering

	NumAlertStates // array-sizing sentinel, not a state
)

// alertStateNames is keyed by constant so the exhaustive analyzer
// flags any AlertState added without a name.
var alertStateNames = [NumAlertStates]string{
	AlertHealthy:    "healthy",
	AlertSuspect:    "suspect",
	AlertAlerting:   "alerting",
	AlertRecovering: "recovering",
}

func (s AlertState) String() string {
	if int(s) < len(alertStateNames) {
		return alertStateNames[s]
	}
	return "alert?"
}

// The detector's thresholds. They are part of the determinism
// contract: changing one changes every golden timeline.
const (
	// detectAlpha is the EWMA smoothing factor for the drop-rate
	// baseline. Higher adapts faster but lets a slow-ramping flood
	// teach the detector that flooding is normal.
	detectAlpha = 0.2
	// detectRiseFactor: a sample is hot when its drop rate exceeds
	// detectRiseFactor × baseline.
	detectRiseFactor = 4
	// detectAbsFloorPPS keeps the rise threshold meaningful when the
	// baseline is near zero — below this rate (drops/s) nothing is
	// ever hot, so counter noise on an idle card can't alert.
	detectAbsFloorPPS = 200
	// detectBacklogFloor: a reported processor backlog at or above
	// this (half the card's 1 ms exhaustion threshold) makes the sample
	// hot regardless of drop rate — catches floods the policy admits
	// but the CPU can't keep up with.
	detectBacklogFloor = 500 * time.Microsecond
	// detectRiseCount consecutive hot samples promote Suspect →
	// Alerting.
	detectRiseCount = 2
	// detectFallCount consecutive calm samples demote Recovering →
	// Healthy.
	detectFallCount = 3
	// detectClearFrac: a sample is calm when its drop rate is at or
	// below detectClearFrac × the rise threshold. The gap between hot
	// and calm is the hysteresis band.
	detectClearFrac = 0.5
)

// Transition is one alert-state change, timestamped with the
// collector's virtual arrival time of the report that caused it.
type Transition struct {
	At       time.Duration
	From, To AlertState
	// Signal is the drop rate (drops/s of sender time) that drove the
	// change; Baseline the frozen EWMA it was judged against.
	Signal   float64
	Baseline float64
}

// Detector turns a device's report series into alert-state
// transitions. It is purely deterministic — stronger than seeded:
// rates derive from sender-side SentAt deltas, judgement timestamps
// from collector arrival time, and no randomness enters anywhere. The
// same report sequence always yields byte-identical timelines.
type Detector struct {
	primed     bool
	lastSentAt time.Duration
	lastDrops  uint64

	baseline  float64
	state     AlertState
	hotStreak int
	cool      int

	transitions []Transition
	alerts      int
}

// NewDetector builds a detector in AlertHealthy with no baseline.
func NewDetector() *Detector { return &Detector{} }

// State returns the current alert state.
func (d *Detector) State() AlertState { return d.state }

// Alerts returns how many times the detector has entered
// AlertAlerting.
func (d *Detector) Alerts() int { return d.alerts }

// Baseline returns the current EWMA drop-rate baseline (drops/s).
func (d *Detector) Baseline() float64 { return d.baseline }

// Transitions returns the recorded state changes in order.
func (d *Detector) Transitions() []Transition { return d.transitions }

// ObserveSilence feeds the absence of a report: the collector's
// staleness watchdog calls it when a device that used to report has
// gone quiet past the silence threshold. Silence is judged as a hot
// sample (Signal recorded as -1) — a card that stops talking during
// its own flood is exactly the EFW lockup case, where the victim is
// mute precisely because it is dying.
func (d *Detector) ObserveSilence(at time.Duration) (AlertState, bool) {
	if !d.primed {
		return d.state, false
	}
	return d.judge(at, -1, true, false)
}

// Observe feeds one report, judged at collector virtual time `at`, and
// returns the (possibly new) state plus whether it changed. Reports
// are differentiated against the previous one from the same device, so
// the first report only primes; reordered or reset counter series
// re-prime rather than producing negative rates.
func (d *Detector) Observe(at time.Duration, r *Report) (AlertState, bool) {
	drops := r.RxDropTotal()
	if !d.primed {
		d.primed = true
		d.lastSentAt, d.lastDrops = r.SentAt, drops
		return d.state, false
	}
	dt := r.SentAt - d.lastSentAt
	if dt <= 0 {
		// Duplicate or reordered report; no new interval to judge.
		return d.state, false
	}
	if drops < d.lastDrops {
		// Counter went backwards (card reset); re-prime the series.
		d.lastSentAt, d.lastDrops = r.SentAt, drops
		return d.state, false
	}
	rate := float64(drops-d.lastDrops) / dt.Seconds()
	d.lastSentAt, d.lastDrops = r.SentAt, drops

	riseThresh := detectRiseFactor * d.baseline
	if riseThresh < detectAbsFloorPPS {
		riseThresh = detectAbsFloorPPS
	}
	hot := rate > riseThresh || r.Backlog >= detectBacklogFloor
	calm := rate <= detectClearFrac*riseThresh && r.Backlog < detectBacklogFloor
	return d.judge(at, rate, hot, calm)
}

// judge advances the state machine for one sample.
func (d *Detector) judge(at time.Duration, rate float64, hot, calm bool) (AlertState, bool) {
	from := d.state
	switch d.state {
	case AlertHealthy:
		if hot {
			d.state = AlertSuspect
			d.hotStreak = 1
		} else {
			// Baseline learns only while healthy: a flood must not
			// drag its own threshold up (Suspect onward freezes it).
			d.baseline += detectAlpha * (rate - d.baseline)
		}
	case AlertSuspect:
		switch {
		case hot:
			d.hotStreak++
			if d.hotStreak >= detectRiseCount {
				d.state = AlertAlerting
				d.alerts++
			}
		case calm:
			d.state = AlertHealthy
			d.baseline += detectAlpha * (rate - d.baseline)
		}
	case AlertAlerting:
		if calm {
			d.state = AlertRecovering
			d.cool = 1
		}
	case AlertRecovering:
		switch {
		case hot:
			d.state = AlertAlerting
			d.alerts++
			d.cool = 0
		case calm:
			d.cool++
			if d.cool >= detectFallCount {
				d.state = AlertHealthy
			}
		}
	case NumAlertStates:
		// Sentinel, unreachable; listed for the exhaustive analyzer.
	}

	changed := d.state != from
	if changed {
		d.transitions = append(d.transitions, Transition{
			At: at, From: from, To: d.state, Signal: rate, Baseline: d.baseline,
		})
	}
	return d.state, changed
}
