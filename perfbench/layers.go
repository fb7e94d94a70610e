package main

import (
	"fmt"
	"slices"
	"strings"

	"barbican/internal/obs/profile"
)

// layers are the simulator packages the ledger charges, plus other: the
// benchmark's own closures, the testbed glue in core, and anything with
// no simulator frame on its stack.
var layers = [...]string{"sim", "link", "nic", "fw", "conntrack", "stack", "vpg", "packet", "measure", "other"}

const (
	numLayers  = len(layers)
	simLayer   = 0
	otherLayer = numLayers - 1

	// stepSymbol is the kernel frame that calls every event handler.
	stepSymbol = "barbican/internal/sim.(*Kernel).Step"
)

func layerIndex(name string) int { return slices.Index(layers[:], name) }

// ownSymbol reports a symbol of this benchmark: package main in the
// binary, its import path under go test.
func ownSymbol(sym string) bool {
	return strings.HasPrefix(sym, "main.") || strings.HasPrefix(sym, "barbican/perfbench.")
}

// layerOf returns the layer that owns a runtime symbol. Frames of the Go
// runtime and standard library have none; they are charged to their
// caller.
func layerOf(sym string) (int, bool) {
	if ownSymbol(sym) {
		return otherLayer, true
	}
	rest, ok := strings.CutPrefix(sym, "barbican/internal/")
	if !ok {
		return 0, false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "nic/conntrack" {
		return layerIndex("conntrack"), true
	}
	top, _, _ := strings.Cut(pkg, "/")
	if i := layerIndex(top); i >= 0 {
		return i, true
	}
	return otherLayer, true
}

// leafLayer charges a profile stack, root first, to its innermost frame
// that has a layer.
func leafLayer(stack []string) int {
	for i := len(stack) - 1; i >= 0; i-- {
		if l, ok := layerOf(stack[i]); ok {
			return l
		}
	}
	return otherLayer
}

// handlerOf returns the layer of the event handler a CPU sample ran
// inside: the frame the innermost kernel Step called, when it is one of
// the handlers the step profiler timed. Samples in the kernel's own
// dispatch (heap operations, the profiler's clock reads) or outside the
// kernel have none. Method-value wrappers ("-fm") match with or without
// the suffix, since stack unwinding elides them.
func handlerOf(stack []string, handlers map[string]int) (int, bool) {
	for i := len(stack) - 2; i >= 0; i-- {
		if stack[i] == stepSymbol {
			l, ok := handlers[strings.TrimSuffix(stack[i+1], "-fm")]
			return l, ok
		}
	}
	return 0, false
}

// valueIndex finds a profile's value column by sample type.
func valueIndex(d *profile.Data, typ string) (int, error) {
	for i, vt := range d.SampleTypes {
		if vt.Type == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values", typ)
}

// timeLedger accumulates the span-traced runs: wall time per layer and
// the traced totals it must add up to.
type timeLedger struct {
	runs     int
	frames   float64
	wall     float64 // traced wall ns, summed over runs
	ns       [numLayers]float64
	perFrame []float64 // each traced run's wall ns per frame
}

// add charges one traced run. Each handler layer's measured spans are
// split over the layers its CPU samples ran in, in proportion; the
// kernel's wall time outside every handler span is sim's own dispatch.
func (t *timeLedger) add(s sample, p *spanProbe) error {
	var spans [numLayers]float64
	var spanned float64
	handlers := make(map[string]int)
	for _, site := range p.kp.Sites() {
		l, ok := layerOf(site.Name)
		if !ok {
			l = otherLayer
		}
		ns := float64(site.Wall.Nanoseconds())
		spans[l] += ns
		spanned += ns
		handlers[strings.TrimSuffix(site.Name, "-fm")] = l
	}
	col, err := valueIndex(p.cpu, "samples")
	if err != nil {
		return err
	}
	var inside [numLayers][numLayers]float64 // CPU samples by [handler layer][leaf layer]
	for _, smp := range p.cpu.Samples {
		if h, ok := handlerOf(smp.Stack, handlers); ok {
			inside[h][leafLayer(smp.Stack)] += float64(smp.Values[col])
		}
	}
	for h, span := range spans {
		var n float64
		for _, c := range inside[h] {
			n += c
		}
		if n == 0 {
			t.ns[h] += span
			continue
		}
		for l, c := range inside[h] {
			t.ns[l] += span * c / n
		}
	}
	t.ns[simLayer] += float64(p.wallBusy.Nanoseconds()) - spanned
	t.runs++
	t.frames += s.frames()
	t.wall += float64(s.wall.Nanoseconds())
	t.perFrame = append(t.perFrame, s.wallPerFrame())
	return nil
}

// allocsByLayer charges the objects allocated between two snapshots of
// the allocation profile to layers. The snapshots' own allocations
// (runtime/pprof and the profile decoder) fall between the two but
// outside the run, and are left out.
func allocsByLayer(before, after *profile.Data) ([numLayers]float64, error) {
	var by [numLayers]float64
	bi, err := valueIndex(before, "alloc_objects")
	if err != nil {
		return by, err
	}
	ai, err := valueIndex(after, "alloc_objects")
	if err != nil {
		return by, err
	}
	prior := make(map[string]int64, len(before.Samples))
	for _, s := range before.Samples {
		prior[strings.Join(s.Stack, "\n")] += s.Values[bi]
	}
	for _, s := range after.Samples {
		if slices.ContainsFunc(s.Stack, snapshotFrame) {
			continue
		}
		by[leafLayer(s.Stack)] += float64(s.Values[ai] - prior[strings.Join(s.Stack, "\n")])
	}
	return by, nil
}

func snapshotFrame(sym string) bool {
	return strings.HasPrefix(sym, "runtime/pprof.") || strings.HasPrefix(sym, "barbican/internal/obs/profile.")
}
