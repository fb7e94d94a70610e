// Package profile is barbican's third observability pillar (after the
// obs metrics registry and the tracing package): a dual-domain
// profiler that answers "where did the budget go?".
//
// Two budgets matter in this simulator, and they live in different
// clocks:
//
//   - The cost domain is the card's embedded-CPU budget, in the
//     abstract cost units of nic.Profile. A CardProfiler attached to a
//     NIC attributes every admitted unit to a named phase — base
//     parse, the per-rule match walk (with rule-index granularity),
//     VPG crypto seal/open, and verdict bookkeeping. This is the
//     paper's Fig. 2/3 collapse decomposed: per-rule match cost ×
//     depth is what exhausts the budget.
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
// The disabled state is a nil profiler: hot-path call sites guard
// with one nil check, which is what keeps the //barbican:noalloc
// rx-path contract (0 allocs/op with profiling off) intact.
package profile

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Phase names one slice of a card's per-packet work in the cost
// model: cost(pkt) = base + perRule×traversed + crypto.
type Phase uint8

// The card work phases. PhaseVerdict carries no cost units in the
// model (the verdict is implicit in where the walk stopped); it
// exists so profiles still count packets per matched rule.
const (
	PhaseParse      Phase = iota // fixed per-packet base cost (header parse, DMA, ring bookkeeping)
	PhaseMatch                   // linear rule walk, perRule × rules traversed
	PhaseCryptoSeal              // VPG seal on egress
	PhaseCryptoOpen              // VPG open on ingress
	PhaseVerdict                 // verdict/forward bookkeeping (packet counts only)

	NumPhases // array-sizing sentinel, not a phase
)

var phaseNames = [NumPhases]string{
	PhaseParse:      "parse",
	PhaseMatch:      "match",
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

// DirProfile accumulates one direction (rx or tx) of a card's
// attributed cost. All fields are exact sums over admitted packets.
type DirProfile struct {
	Packets     uint64  // admitted packets
	BaseUnits   float64 // PhaseParse units
	MatchUnits  float64 // PhaseMatch units
	CryptoUnits float64 // crypto units (seal on tx, open on rx)
	CryptoPkts  uint64  // packets that paid crypto

	// Walks[t] counts packets whose verdict came after traversing
	// exactly t rules; rule i (1-based) was therefore examined by
	// every packet with t >= i, which is what makes per-rule match
	// cost reconstructible without O(depth) work per packet.
	Walks []uint64
	// Hits[i] counts packets matched at 1-based rule i; Hits[0] is
	// the default action.
	Hits []uint64
}

// record accumulates one admitted packet. Hot path when profiling is
// on; the only allocations are the rare Walks/Hits growth steps.
func (d *DirProfile) record(traversed, matched int, base, match, crypto float64) {
	d.Packets++
	d.BaseUnits += base
	d.MatchUnits += match
	if crypto > 0 {
		d.CryptoUnits += crypto
		d.CryptoPkts++
	}
	for traversed >= len(d.Walks) {
		d.Walks = append(d.Walks, 0)
	}
	d.Walks[traversed]++
	if matched < 0 {
		matched = 0
	}
	for matched >= len(d.Hits) {
		d.Hits = append(d.Hits, 0)
	}
	d.Hits[matched]++
}

// Units returns the direction's total attributed cost units.
func (d *DirProfile) Units() float64 { return d.BaseUnits + d.MatchUnits + d.CryptoUnits }

// CardProfiler attributes one card's admitted cost units to phases
// and rule indices. It is exact (every admitted packet recorded) and
// single-threaded, like the kernel that drives it. A nil *CardProfiler
// is the disabled state.
type CardProfiler struct {
	// Host labels the card's testbed host ("target", "client", ...).
	Host string
	// Device is the card profile name ("EFW", "ADF", ...).
	Device string
	// PerRule is the card's per-rule match cost, used to reconstruct
	// per-rule units from traversal counts.
	PerRule float64
	// RuleText, when non-nil, resolves a 1-based rule index to its
	// DSL text for profile frame labels (evaluated at export time, so
	// labels reflect the finally-installed policy).
	RuleText func(i int) string

	Rx DirProfile
	Tx DirProfile
}

// NewCardProfiler creates a profiler for one card.
func NewCardProfiler(host, device string, perRule float64) *CardProfiler {
	return &CardProfiler{Host: host, Device: device, PerRule: perRule}
}

// RecordRx attributes one admitted ingress packet: its fixed base
// cost, match-walk cost, crypto (open) cost, the rules traversed, and
// the 1-based matched rule (0 = default action).
func (cp *CardProfiler) RecordRx(traversed, matched int, base, match, crypto float64) {
	cp.Rx.record(traversed, matched, base, match, crypto)
}

// RecordTx attributes one admitted egress packet (crypto = seal).
func (cp *CardProfiler) RecordTx(traversed, matched int, base, match, crypto float64) {
	cp.Tx.record(traversed, matched, base, match, crypto)
}

// Units returns the card's total attributed cost units, both
// directions — comparable against the processor's UnitsDone.
func (cp *CardProfiler) Units() float64 { return cp.Rx.Units() + cp.Tx.Units() }

// ruleFrame renders the stack frame of one 1-based rule index.
// Semicolons join frames in summaries and diffs, so they can never
// appear in a frame.
func (cp *CardProfiler) ruleFrame(i int) string {
	label := fmt.Sprintf("rule %03d", i)
	if cp.RuleText != nil {
		if text := cp.RuleText(i); text != "" {
			label += ": " + text
		}
	}
	return strings.ReplaceAll(label, ";", ",")
}

// CostSampleTypes is the value schema of cost-domain profiles: cost
// units first (the default flamegraph weight), packet counts second.
var CostSampleTypes = []ValueType{{Type: "cost", Unit: "units"}, {Type: "packets", Unit: "count"}}

// AppendCostSamples appends the card's attributed samples to d, which
// must use CostSampleTypes. Stacks are root→leaf:
//
//	<host> (<device>) ; rx|tx ; phase [; rule NNN[: text] | default]
//
// Zero-valued samples are skipped, so profiles stay proportional to
// the rules actually exercised.
func (cp *CardProfiler) AppendCostSamples(d *Data) {
	card := strings.ReplaceAll(fmt.Sprintf("%s (%s)", cp.Host, cp.Device), ";", ",")
	for _, dir := range []struct {
		name string
		p    *DirProfile
	}{{"rx", &cp.Rx}, {"tx", &cp.Tx}} {
		dp := dir.p
		if dp.Packets == 0 {
			continue
		}
		d.Add([]string{card, dir.name, PhaseParse.String()}, round(dp.BaseUnits), int64(dp.Packets))
		// Per-rule match attribution: rule i was examined by every
		// packet that traversed at least i rules. The suffix sum runs
		// deepest-first so each rule's count is O(1).
		examined := uint64(0)
		perRule := make([]uint64, len(dp.Walks))
		for t := len(dp.Walks) - 1; t >= 1; t-- {
			examined += dp.Walks[t]
			perRule[t] = examined
		}
		for i := 1; i < len(perRule); i++ {
			if perRule[i] == 0 {
				continue
			}
			d.Add([]string{card, dir.name, PhaseMatch.String(), cp.ruleFrame(i)},
				round(cp.PerRule*float64(perRule[i])), int64(perRule[i]))
		}
		if dp.CryptoUnits > 0 {
			phase := PhaseCryptoOpen
			if dir.name == "tx" {
				phase = PhaseCryptoSeal
			}
			d.Add([]string{card, dir.name, phase.String()}, round(dp.CryptoUnits), int64(dp.CryptoPkts))
		}
		for i, hits := range dp.Hits {
			if hits == 0 {
				continue
			}
			frame := "default"
			if i > 0 {
				frame = cp.ruleFrame(i)
			}
			d.Add([]string{card, dir.name, PhaseVerdict.String(), frame}, 0, int64(hits))
		}
	}
}

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

// round converts accumulated float units to a profile value.
func round(v float64) int64 {
	if v < 0 {
		return 0
	}
	return int64(v + 0.5)
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
