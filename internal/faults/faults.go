// Package faults is the deterministic fault-injection layer: seeded,
// virtual-time fault plans applied to link endpoints through the
// link.FaultInjector hook.
//
// A Plan is pure data — probabilities and scheduled windows — and an
// Injector is a Plan bound to an explicitly seeded *rand.Rand. Every
// random decision comes from that private generator, never from the
// global source or wall clock, so a (plan, seed, traffic) triple
// yields byte-identical behavior on every run and at any -parallel
// setting: the experiment runner gives each point its own kernel and
// its own injectors, and nothing here escapes the simulation
// goroutine.
//
// Plans compose loss, corruption, duplication, reordering, and
// scheduled down windows; ParsePlan/String round-trip the CLI spec
// format used by the -faults flag:
//
//	loss=0.1,corrupt=0.01,dup=0.02,reorder=0.05,reorder-delay=1ms,down=1s-2s
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"barbican/internal/link"
	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
)

// DefaultReorderDelay is the extra-delay bound applied to reordered
// frames when the plan does not set one.
const DefaultReorderDelay = 2 * time.Millisecond

// duplicateGap is the fixed extra delay of a duplicated frame's second
// copy, enough to land it behind the original.
const duplicateGap = time.Microsecond

// Window is a half-open [From, To) interval of virtual time during
// which the link is down: every frame sent inside it is lost.
type Window struct {
	From, To time.Duration
}

func (w Window) contains(t time.Duration) bool { return t >= w.From && t < w.To }

// Plan describes what a fault injector does. The zero Plan injects
// nothing. Probabilities are per-frame in [0, 1] and independent.
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

// Injector applies a Plan to one link direction. It implements
// link.FaultInjector. All randomness comes from its private seeded
// generator; an Injector must only be used from the simulation
// goroutine of the kernel whose traffic it sees.
type Injector struct {
	plan Plan
	rng  *rand.Rand
}

// NewInjector binds a plan to a fresh generator seeded with seed.
func NewInjector(plan Plan, seed int64) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Apply decides the fate of one accepted frame. Down windows are
// checked first (no randomness spent), then loss, corruption,
// reordering, and duplication each draw once in that fixed order, so
// the decision stream is a pure function of (seed, frame sequence).
// The corrupted and duplicated copies come from frames.
func (in *Injector) Apply(f *packet.Frame, now time.Duration, frames *packet.FramePool) link.FaultOutcome {
	for _, w := range in.plan.Down {
		if w.contains(now) {
			return link.FaultOutcome{Lost: true, Reason: tracing.DropLinkDown}
		}
	}
	if in.plan.Loss > 0 && in.rng.Float64() < in.plan.Loss {
		return link.FaultOutcome{Lost: true, Reason: tracing.DropFaultLoss}
	}

	var out link.FaultOutcome
	deliver := f
	if in.plan.Corrupt > 0 && in.rng.Float64() < in.plan.Corrupt && len(f.Payload) > 0 {
		c := frames.Clone(f)
		bit := in.rng.Intn(len(c.Payload) * 8)
		c.Payload[bit/8] ^= 1 << (bit % 8)
		deliver = c
		out.Corrupted = true
	}
	var extra time.Duration
	if in.plan.Reorder > 0 && in.rng.Float64() < in.plan.Reorder {
		bound := in.plan.ReorderDelay
		if bound <= 0 {
			bound = DefaultReorderDelay
		}
		extra = time.Duration(1 + in.rng.Int63n(int64(bound)))
		out.Reordered = true
	}
	dup := in.plan.Duplicate > 0 && in.rng.Float64() < in.plan.Duplicate
	if dup {
		out.Duplicated = true
	}
	if !out.Corrupted && !out.Reordered && !dup {
		return link.FaultOutcome{} // pass through, no allocation
	}
	out.Deliveries = append(out.Deliveries, link.FaultDelivery{Frame: deliver, ExtraDelay: extra})
	if dup {
		out.Deliveries = append(out.Deliveries, link.FaultDelivery{
			Frame: frames.Clone(deliver), ExtraDelay: extra + duplicateGap,
		})
	}
	return out
}

// Attach binds the plan to both directions of e's link with derived
// seeds (seed for e's transmit side, seed+1 for the peer's), returning
// the two injectors. This is the usual way to make a host's access
// link — e.g. the policy server's management channel — lossy in both
// directions.
func Attach(e *link.Endpoint, plan Plan, seed int64) (tx, rx *Injector) {
	tx = NewInjector(plan, seed)
	rx = NewInjector(plan, seed+1)
	e.SetFaults(tx)
	e.Peer().SetFaults(rx)
	return tx, rx
}
