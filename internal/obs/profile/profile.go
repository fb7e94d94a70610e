// Package profile is barbican's third observability pillar (after the
// obs metrics registry and the tracing package): a dual-domain
// profiler that answers "where did the budget go?".
//
// Two budgets matter in this simulator, and they live in different
// clocks:
//
//   - The cost domain is an enforcement point's processor budget, in
//     the abstract cost units of nic.Profile. It is always recorded:
//     every nic.Processor — each card's, and the iptables host
//     filter's — tallies each packet it admits by Phase, and renders
//     the tally (Processor.AppendCostSamples) to stacks that sum to
//     its units done: base parse, the rule match (a frame per rule for
//     a linear walk, one flat "compiled lookup" or "cache hit" frame
//     otherwise), conntrack, VPG crypto seal/open, and verdict
//     bookkeeping. This is the paper's Fig. 2/3 collapse decomposed:
//     per-rule match cost × depth is what exhausts the budget.
//   - The wall domain is the host CPU running the simulation. A
//     KernelProfiler samples the sim event loop 1-in-N
//     (counter-based, like the tracing sampler) and attributes
//     measured wall time to each event handler — the data that says
//     which simulation regions are worth sharding.
//
// Both domains export through one in-memory Data model as gzipped
// pprof profile.proto (hand-rolled, stdlib only — see pprof.go), which
// carries every value column; `go tool pprof` and speedscope open it.
//
// Determinism contract (DESIGN.md §12): cost-domain profiles are
// exact, not sampled — every admitted packet is recorded — so their
// exported bytes are identical for identical scenarios at any
// -parallel setting. Wall-domain profiles are deterministic in
// structure and event counts (counter-based sampling on a
// deterministic event sequence) but their wall-nanosecond values are
// measured, and therefore vary run to run.
//
// Recording cost allocates nothing; the wall domain's disabled state
// is a nil KernelProfiler.
package profile

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Phase names one slice of an enforcement point's per-packet work in
// the cost model: cost(pkt) = base + match + conntrack + crypto.
type Phase uint8

// The work phases. PhaseVerdict carries no cost units in the model
// (the verdict is implicit in where the walk stopped); it exists so
// profiles still count packets per matched rule.
const (
	PhaseParse      Phase = iota // fixed per-packet base cost (header parse, DMA, ring bookkeeping)
	PhaseMatch                   // rule match: linear walk, compiled lookup or flow-cache hit
	PhaseConntrack               // connection-tracking classification and entry insert
	PhaseCryptoSeal              // VPG seal on egress
	PhaseCryptoOpen              // VPG open on ingress
	PhaseVerdict                 // verdict/forward bookkeeping (packet counts only)

	NumPhases // array-sizing sentinel, not a phase
)

var phaseNames = [NumPhases]string{
	PhaseParse:      "parse",
	PhaseMatch:      "match",
	PhaseConntrack:  "conntrack",
	PhaseCryptoSeal: "crypto.seal",
	PhaseCryptoOpen: "crypto.open",
	PhaseVerdict:    "verdict",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase?"
}

// Options configures profiling for one run.
type Options struct {
	// KernelSampleEvery samples 1 in N executed kernel events in the
	// wall domain; <= 0 means DefaultKernelSampleEvery. The cost
	// domain is always exact.
	KernelSampleEvery int
}

// DefaultKernelSampleEvery is the default 1-in-N event sampling rate
// of the wall-domain kernel profiler.
const DefaultKernelSampleEvery = 16

// CostSampleTypes is the value schema of cost-domain profiles: cost
// units first (the default flamegraph weight), packet counts second.
var CostSampleTypes = []ValueType{{Type: "cost", Unit: "units"}, {Type: "packets", Unit: "count"}}

// KernelSite is one event handler observed by the wall-domain
// profiler.
type KernelSite struct {
	// Name is the handler's runtime symbol, e.g.
	// "barbican/internal/nic.(*NIC).finishPending-fm".
	Name string
	// Samples counts sampled executions; each represents
	// KernelSampleEvery events.
	Samples uint64
	// Wall is the measured host time spent inside sampled executions
	// of this handler (outermost kernel steps only).
	Wall time.Duration
}

// KernelProfiler samples the simulation event loop: 1 in every N
// executed events is timed on the host clock and attributed to its
// handler function. It implements sim.StepProfiler.
//
// The sampling decision is counter-based, so which events get
// sampled — and therefore the site set, its order, and all event
// counts — is a deterministic function of the simulation inputs; only
// the wall-nanosecond values are measured.
type KernelProfiler struct {
	every uint64
	seen  uint64

	byPC  map[uintptr]int
	sites []KernelSite

	// Nested kernel runs (an event callback driving the kernel) stack
	// here; wall time is attributed to the outermost step only.
	stack []int
	start time.Time
}

// NewKernelProfiler creates a wall-domain profiler sampling 1 in
// every events (<= 0 means DefaultKernelSampleEvery).
func NewKernelProfiler(every int) *KernelProfiler {
	if every <= 0 {
		every = DefaultKernelSampleEvery
	}
	return &KernelProfiler{every: uint64(every), byPC: make(map[uintptr]int)}
}

// SampleEvery reports the configured 1-in-N event sampling rate.
func (kp *KernelProfiler) SampleEvery() int { return int(kp.every) }

// Take makes the deterministic sampling decision for one executed
// event: every call increments the seen counter and every Nth call
// returns true.
func (kp *KernelProfiler) Take() bool {
	kp.seen++
	return kp.seen%kp.every == 0
}

// BeginStep starts timing a sampled event executing the handler at
// pc. The at parameter is the kernel's virtual clock, accepted for
// interface completeness.
func (kp *KernelProfiler) BeginStep(pc uintptr, at time.Duration) {
	_ = at
	idx, ok := kp.byPC[pc]
	if !ok {
		name := fmt.Sprintf("pc 0x%x", pc)
		if f := runtime.FuncForPC(pc); f != nil {
			name = f.Name()
		}
		idx = len(kp.sites)
		kp.byPC[pc] = idx
		kp.sites = append(kp.sites, KernelSite{Name: name})
	}
	kp.stack = append(kp.stack, idx)
	if len(kp.stack) == 1 {
		kp.start = time.Now()
	}
}

// EndStep finishes the innermost in-flight sampled event.
func (kp *KernelProfiler) EndStep() {
	n := len(kp.stack)
	if n == 0 {
		return
	}
	idx := kp.stack[n-1]
	kp.stack = kp.stack[:n-1]
	kp.sites[idx].Samples++
	if n == 1 {
		kp.sites[idx].Wall += time.Since(kp.start)
	}
}

// Seen reports total executed events offered to the sampler.
func (kp *KernelProfiler) Seen() uint64 { return kp.seen }

// Sites returns the observed handlers in first-sample order.
func (kp *KernelProfiler) Sites() []KernelSite { return kp.sites }

// KernelSampleTypes is the value schema of wall-domain profiles:
// estimated event counts (deterministic) and measured wall time.
var KernelSampleTypes = []ValueType{{Type: "events", Unit: "count"}, {Type: "walltime", Unit: "nanoseconds"}}

// Data converts the profiler's sites into an exportable profile.
// Stacks are [package path, symbol] so flamegraphs group handlers by
// component. Event counts are scaled by the sampling rate.
func (kp *KernelProfiler) Data() *Data {
	d := NewData(KernelSampleTypes, "walltime")
	d.Comments = append(d.Comments,
		fmt.Sprintf("wall-domain kernel profile: sampled 1 in %d of %d events", kp.every, kp.seen))
	d.Period = int64(kp.every)
	d.PeriodType = ValueType{Type: "events", Unit: "count"}
	for _, s := range kp.sites {
		pkg, sym := splitSymbol(s.Name)
		d.Add([]string{pkg, sym}, int64(s.Samples*kp.every), s.Wall.Nanoseconds())
	}
	return d
}

// splitSymbol splits a runtime symbol into (package path, function).
func splitSymbol(name string) (string, string) {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "unknown", name
	}
	cut := slash + 1 + dot
	return name[:cut], name[cut+1:]
}

// ValueType describes one value column of a profile, pprof-style.
type ValueType struct {
	Type string
	Unit string
}

// Sample is one stack with its values. Stack is ordered root→leaf.
type Sample struct {
	Stack  []string
	Values []int64
}

// Data is the in-memory profile model shared by both domains: an
// ordered list of stacks, each with one value per sample type. Order
// is insertion order, which keeps every export deterministic.
type Data struct {
	SampleTypes []ValueType
	// DefaultType selects the value column pprof shows by default
	// and Total sums; must name one of SampleTypes.
	DefaultType string
	Period      int64
	PeriodType  ValueType
	Comments    []string
	Samples     []*Sample

	index map[string]*Sample
}

// NewData creates an empty profile with the given value schema.
func NewData(types []ValueType, defaultType string) *Data {
	return &Data{
		SampleTypes: append([]ValueType(nil), types...),
		DefaultType: defaultType,
		index:       make(map[string]*Sample),
	}
}

const stackSep = "\x00"

func stackKey(stack []string) string { return strings.Join(stack, stackSep) }

// Add accumulates values into the sample with the given stack,
// creating it (in insertion order) on first use.
func (d *Data) Add(stack []string, values ...int64) {
	if len(values) != len(d.SampleTypes) {
		panic(fmt.Sprintf("profile: Add with %d values, want %d", len(values), len(d.SampleTypes)))
	}
	key := stackKey(stack)
	if d.index == nil {
		d.index = make(map[string]*Sample)
	}
	s, ok := d.index[key]
	if !ok {
		s = &Sample{Stack: append([]string(nil), stack...), Values: make([]int64, len(values))}
		d.index[key] = s
		d.Samples = append(d.Samples, s)
	}
	for i, v := range values {
		s.Values[i] += v
	}
}

// defaultIndex returns the value column index of DefaultType.
func (d *Data) defaultIndex() int {
	for i, vt := range d.SampleTypes {
		if vt.Type == d.DefaultType {
			return i
		}
	}
	return 0
}

// Total sums the default-type value over all samples.
func (d *Data) Total() int64 {
	di := d.defaultIndex()
	var total int64
	for _, s := range d.Samples {
		total += s.Values[di]
	}
	return total
}
