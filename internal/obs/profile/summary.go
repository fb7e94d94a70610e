// Profile summaries and diffs: the text bodies of `barbican profile`
// and `scripts/bench.sh --profile-compare`.
package profile

import (
	"fmt"
	"sort"
	"strings"
)

// phaseKey rolls a sample up to its phase: the first three frames for
// card-cost stacks ("host (dev);rx;match"), the full stack otherwise.
func phaseKey(stack []string) string {
	if len(stack) > 3 {
		return strings.Join(stack[:3], ";")
	}
	return strings.Join(stack, ";")
}

// rollup aggregates default-type values by phaseKey, preserving first
// appearance order.
func (d *Data) rollup() ([]string, map[string]int64) {
	di := d.defaultIndex()
	var order []string
	vals := make(map[string]int64)
	for _, s := range d.Samples {
		k := phaseKey(s.Stack)
		if _, ok := vals[k]; !ok {
			order = append(order, k)
		}
		vals[k] += s.Values[di]
	}
	return order, vals
}

// Summary renders a deterministic top-N table: a per-phase rollup
// (every sample counted) followed by the top full stacks by weight.
// It is the body of `barbican profile <file>`.
func (d *Data) Summary(top int) string {
	if top <= 0 {
		top = 20
	}
	var b strings.Builder
	unit := "samples"
	if i := d.defaultIndex(); i < len(d.SampleTypes) {
		unit = d.SampleTypes[i].Unit
	}
	total := d.Total()
	fmt.Fprintf(&b, "profile: %d samples, %d %s total (%s)\n", len(d.Samples), total, unit, d.DefaultType)
	for _, c := range d.Comments {
		fmt.Fprintf(&b, "# %s\n", c)
	}

	order, vals := d.rollup()
	sort.SliceStable(order, func(i, j int) bool {
		if vals[order[i]] != vals[order[j]] {
			return vals[order[i]] > vals[order[j]]
		}
		return order[i] < order[j]
	})
	b.WriteString("\nPhases:\n")
	fmt.Fprintf(&b, "  %12s  %6s  %s\n", unit, "%", "phase")
	for _, k := range order {
		fmt.Fprintf(&b, "  %12d  %5.1f%%  %s\n", vals[k], pct(vals[k], total), k)
	}

	fmt.Fprintf(&b, "\nTop %d stacks:\n", top)
	fmt.Fprintf(&b, "  %12s  %6s  %s\n", unit, "%", "stack")
	di := d.defaultIndex()
	for i, s := range d.sortedByWeight() {
		if i >= top {
			break
		}
		fmt.Fprintf(&b, "  %12d  %5.1f%%  %s\n", s.Values[di], pct(s.Values[di], total), strings.Join(s.Stack, ";"))
	}
	return b.String()
}

func pct(v, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}

// Diff renders per-phase and per-stack deltas of new against old
// (positive = new costs more), sorted by absolute delta. It is the
// body of `barbican profile -diff old new` and bench.sh
// --profile-compare.
func Diff(oldD, newD *Data, top int) string {
	if top <= 0 {
		top = 20
	}
	var b strings.Builder
	unit := "samples"
	if i := newD.defaultIndex(); i < len(newD.SampleTypes) {
		unit = newD.SampleTypes[i].Unit
	}
	oldTotal, newTotal := oldD.Total(), newD.Total()
	fmt.Fprintf(&b, "profile diff (%s, %s): total %d -> %d (%+d)\n",
		newD.DefaultType, unit, oldTotal, newTotal, newTotal-oldTotal)

	oldOrder, oldVals := oldD.rollup()
	newOrder, newVals := newD.rollup()
	keys := append([]string(nil), oldOrder...)
	for _, k := range newOrder {
		if _, ok := oldVals[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		di := abs64(newVals[keys[i]] - oldVals[keys[i]])
		dj := abs64(newVals[keys[j]] - oldVals[keys[j]])
		if di != dj {
			return di > dj
		}
		return keys[i] < keys[j]
	})
	b.WriteString("\nPhase deltas:\n")
	fmt.Fprintf(&b, "  %12s  %12s  %12s  %s\n", "old", "new", "delta", "phase")
	for _, k := range keys {
		o, n := oldVals[k], newVals[k]
		fmt.Fprintf(&b, "  %12d  %12d  %+12d  %s\n", o, n, n-o, k)
	}

	// Per-stack deltas on the full stacks.
	type entry struct {
		stack    string
		old, new int64
	}
	byStack := make(map[string]*entry)
	var seq []*entry
	get := func(key string) *entry {
		e, ok := byStack[key]
		if !ok {
			e = &entry{stack: key}
			byStack[key] = e
			seq = append(seq, e)
		}
		return e
	}
	oi, ni := oldD.defaultIndex(), newD.defaultIndex()
	for _, s := range oldD.Samples {
		get(strings.Join(s.Stack, ";")).old += s.Values[oi]
	}
	for _, s := range newD.Samples {
		get(strings.Join(s.Stack, ";")).new += s.Values[ni]
	}
	sort.SliceStable(seq, func(i, j int) bool {
		di, dj := abs64(seq[i].new-seq[i].old), abs64(seq[j].new-seq[j].old)
		if di != dj {
			return di > dj
		}
		return seq[i].stack < seq[j].stack
	})
	fmt.Fprintf(&b, "\nTop %d stack deltas:\n", top)
	fmt.Fprintf(&b, "  %12s  %12s  %12s  %s\n", "old", "new", "delta", "stack")
	shown := 0
	for _, e := range seq {
		if shown >= top {
			break
		}
		if e.new == e.old {
			continue
		}
		fmt.Fprintf(&b, "  %12d  %12d  %+12d  %s\n", e.old, e.new, e.new-e.old, e.stack)
		shown++
	}
	if shown == 0 {
		b.WriteString("  (no per-stack differences)\n")
	}
	return b.String()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
