// Package faults describes deterministic fault plans: the loss,
// corruption, duplication, reordering and scheduled down windows a link
// direction applies to the frames it accepts.
//
// A Plan is pure data, probabilities and virtual-time windows. A link
// applies it (link.Endpoint.SetFaults, link.AttachFaults) with its own
// explicitly seeded generator, never the global source or the wall
// clock, so a (plan, seed, traffic) triple yields byte-identical
// behavior on every run and at any -parallel setting.
//
// ParsePlan and String round-trip the spec format of the -faults flag:
//
//	loss=0.1,corrupt=0.01,dup=0.02,reorder=0.05,reorder-delay=1ms,down=1s-2s
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultReorderDelay is the extra-delay bound applied to reordered
// frames when the plan does not set one.
const DefaultReorderDelay = 2 * time.Millisecond

// Window is a half-open [From, To) interval of virtual time during
// which the link is down: every frame sent inside it is lost.
type Window struct {
	From, To time.Duration
}

// Plan describes what a link direction does to the frames it accepts.
// The zero Plan injects nothing. Probabilities are per-frame in [0, 1]
// and independent.
type Plan struct {
	Loss      float64 // probabilistic frame loss
	Corrupt   float64 // single-bit payload corruption
	Duplicate float64 // frame delivered twice
	Reorder   float64 // frame delayed by up to ReorderDelay

	// ReorderDelay bounds the extra delay of reordered frames; zero
	// means DefaultReorderDelay.
	ReorderDelay time.Duration

	// Down lists scheduled link-down windows (partitions when applied
	// to a host's access link).
	Down []Window
}

// String renders the plan in canonical ParsePlan syntax: fields in
// fixed order, zero fields omitted, down windows sorted by start.
func (p Plan) String() string {
	var parts []string
	add := func(key string, v float64) {
		if v > 0 {
			parts = append(parts, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("loss", p.Loss)
	add("corrupt", p.Corrupt)
	add("dup", p.Duplicate)
	add("reorder", p.Reorder)
	if p.Reorder > 0 && p.ReorderDelay > 0 {
		parts = append(parts, "reorder-delay="+p.ReorderDelay.String())
	}
	wins := append([]Window(nil), p.Down...)
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].From != wins[j].From {
			return wins[i].From < wins[j].From
		}
		return wins[i].To < wins[j].To
	})
	for _, w := range wins {
		parts = append(parts, fmt.Sprintf("down=%s-%s", w.From, w.To))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the -faults CLI spec: comma-separated key=value
// pairs. Keys: loss, corrupt, dup, reorder (probabilities in [0,1]),
// reorder-delay (duration), down (FROM-TO duration window,
// repeatable). "none" and the empty string parse to the zero Plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		switch key {
		case "loss", "corrupt", "dup", "reorder":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return Plan{}, fmt.Errorf("faults: %s wants a probability in [0,1], got %q", key, val)
			}
			switch key {
			case "loss":
				p.Loss = f
			case "corrupt":
				p.Corrupt = f
			case "dup":
				p.Duplicate = f
			case "reorder":
				p.Reorder = f
			}
		case "reorder-delay":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return Plan{}, fmt.Errorf("faults: reorder-delay wants a positive duration, got %q", val)
			}
			p.ReorderDelay = d
		case "down":
			from, to, ok := strings.Cut(val, "-")
			if !ok {
				return Plan{}, fmt.Errorf("faults: down wants FROM-TO, got %q", val)
			}
			wf, errF := time.ParseDuration(from)
			wt, errT := time.ParseDuration(to)
			if errF != nil || errT != nil || wf < 0 || wt <= wf {
				return Plan{}, fmt.Errorf("faults: bad down window %q", val)
			}
			p.Down = append(p.Down, Window{From: wf, To: wt})
		default:
			return Plan{}, fmt.Errorf("faults: unknown key %q (want loss, corrupt, dup, reorder, reorder-delay, down)", key)
		}
	}
	return p, nil
}
