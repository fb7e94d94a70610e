// Package obs is barbican's unified telemetry layer: a metrics registry
// (func-backed counter and gauge series with labels), a virtual-time
// flight recorder that samples registered metrics on a configurable
// tick, and exporters for Prometheus text format, JSON, and CSV.
//
// The design contract is zero cost when disabled: components keep their
// existing plain counter structs on the fast path and expose them to a
// registry through read closures ("collectors") that are only invoked
// when a snapshot is taken. A simulation with no registry attached — or
// a registry with no recorder sampling it — executes exactly the same
// instructions on the packet path as an uninstrumented one.
//
// All sampling happens in virtual time on the simulation kernel, so
// recorded time series are deterministic per seed, like everything else
// in the simulator.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a metric series for exporters and rate derivation.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative count;
	// exporters derive instantaneous rates from counter timelines.
	KindCounter Kind = iota + 1
	// KindGauge is a point-in-time level (queue depth, ratio, boolean).
	KindGauge
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "untyped"
	}
}

// Label is one key="value" dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesID renders the canonical identity of a series: the family name
// plus its labels in sorted-key order, Prometheus-style.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// SeriesInfo describes one registered scalar series.
type SeriesInfo struct {
	// ID is the canonical name{labels} identity.
	ID string
	// Name is the metric family name.
	Name string
	// Help is the family's one-line description.
	Help string
	// Kind is the series kind.
	Kind Kind
	// Labels are the series dimensions, in sorted-key order.
	Labels []Label
}

// SampleValue is one gathered observation of a series.
type SampleValue struct {
	SeriesInfo
	Value float64
}

type series struct {
	info SeriesInfo
	read func() float64
}

// Registry holds the registered metric series of one simulation run.
// Registration order is preserved; it defines export and recorder
// column order, keeping every artifact deterministic.
//
// A Registry is not safe for concurrent use; like the kernel it
// observes, it belongs to the single simulation goroutine.
type Registry struct {
	series []*series
	byID   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]bool)}
}

// RegisterFunc registers a collector series whose value is produced by
// read at gather time. This is how components publish existing counters
// without changing their fast-path structs. Registering a duplicate
// name+labels identity is an error.
func (r *Registry) RegisterFunc(name, help string, kind Kind, read func() float64, labels ...Label) error {
	if name == "" {
		return fmt.Errorf("obs: register: empty metric name")
	}
	if read == nil {
		return fmt.Errorf("obs: register %s: nil read func", name)
	}
	id := seriesID(name, labels)
	if r.byID[id] {
		return fmt.Errorf("obs: duplicate series %s", id)
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	r.byID[id] = true
	r.series = append(r.series, &series{
		info: SeriesInfo{ID: id, Name: name, Help: help, Kind: kind, Labels: sorted},
		read: read,
	})
	return nil
}

// MustRegisterFunc is RegisterFunc, panicking on error. Registration
// happens at wiring time with programmer-chosen names, so a failure is
// a bug, not a runtime condition.
func (r *Registry) MustRegisterFunc(name, help string, kind Kind, read func() float64, labels ...Label) {
	if err := r.RegisterFunc(name, help, kind, read, labels...); err != nil {
		panic(err)
	}
}

// Len returns the number of registered scalar series.
func (r *Registry) Len() int { return len(r.series) }

// Infos returns the registered series descriptors in registration order.
func (r *Registry) Infos() []SeriesInfo {
	out := make([]SeriesInfo, len(r.series))
	for i, s := range r.series {
		out[i] = s.info
	}
	return out
}

// Gather reads every registered series once, in registration order.
func (r *Registry) Gather() []SampleValue {
	out := make([]SampleValue, len(r.series))
	for i, s := range r.series {
		out[i] = SampleValue{SeriesInfo: s.info, Value: s.read()}
	}
	return out
}

// gatherValues reads every series into dst (resized as needed),
// avoiding per-tick descriptor allocation in the recorder.
func (r *Registry) gatherValues(dst []float64) []float64 {
	if cap(dst) < len(r.series) {
		dst = make([]float64, len(r.series))
	}
	dst = dst[:len(r.series)]
	for i, s := range r.series {
		dst[i] = s.read()
	}
	return dst
}
