package obs

import (
	"time"

	"barbican/internal/sim"
)

// DefaultSampleEvery is the flight recorder's default virtual-time tick.
const DefaultSampleEvery = 50 * time.Millisecond

// DefaultTickLimit bounds the retained timeline (oldest ticks dropped).
const DefaultTickLimit = 1 << 16

// Tick is one flight-recorder sample: all registered series read at one
// virtual instant. Values are aligned with the registry's registration
// order at sample time; series registered later than a tick simply have
// no value there (exporters render the cell empty).
type Tick struct {
	At     time.Duration
	Values []float64
}

// Point is one (virtual time, value) observation of a single series.
type Point struct {
	T time.Duration
	V float64
}

// SeriesData is one series' recorded timeline.
type SeriesData struct {
	Info   SeriesInfo
	Points []Point
}

// Rate returns the per-second first difference of the series — the
// instantaneous rate for counter timelines (e.g. bytes/s from a
// cumulative byte count). The result has one point per interval,
// stamped at the interval's end.
func (sd SeriesData) Rate() []Point {
	if len(sd.Points) < 2 {
		return nil
	}
	out := make([]Point, 0, len(sd.Points)-1)
	for i := 1; i < len(sd.Points); i++ {
		dt := sd.Points[i].T - sd.Points[i-1].T
		if dt <= 0 {
			continue
		}
		out = append(out, Point{
			T: sd.Points[i].T,
			V: (sd.Points[i].V - sd.Points[i-1].V) / dt.Seconds(),
		})
	}
	return out
}

// Recorder samples a registry on a fixed virtual-time tick, building
// per-run time series. It is the component that turns endpoint scalars
// ("0 Mbps available") into a time-resolved view of *how* a run got
// there (goodput collapsing as a flood saturates the card).
//
// The recorder schedules ordinary kernel events; it draws nothing from
// the kernel's random source, so attaching one perturbs only event
// sequence numbers, never the simulated outcome's distribution.
type Recorder struct {
	kernel  *sim.Kernel
	reg     *Registry
	every   time.Duration
	limit   int
	ticks   []Tick
	dropped uint64
	running bool
	ev      *sim.Event
}

// NewRecorder creates a recorder sampling reg on the kernel's clock.
// every <= 0 defaults to DefaultSampleEvery.
func NewRecorder(k *sim.Kernel, reg *Registry, every time.Duration) *Recorder {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Recorder{kernel: k, reg: reg, every: every, limit: DefaultTickLimit}
}

// Every returns the sampling interval.
func (rec *Recorder) Every() time.Duration { return rec.every }

// Start samples immediately and then on every tick until Stop. Starting
// a running recorder is a no-op.
func (rec *Recorder) Start() {
	if rec.running {
		return
	}
	rec.running = true
	rec.Sample()
	rec.schedule()
}

// Stop cancels the pending tick. The recorded timeline is retained.
func (rec *Recorder) Stop() {
	rec.running = false
	if rec.ev != nil {
		rec.ev.Cancel()
		rec.ev = nil
	}
}

// Sample takes one sample at the current virtual time, independent of
// the periodic tick (e.g. a final sample after the measurement window).
func (rec *Recorder) Sample() {
	t := Tick{At: rec.kernel.Now()}
	t.Values = rec.reg.gatherValues(nil)
	if len(rec.ticks) >= rec.limit {
		rec.ticks = rec.ticks[1:]
		rec.dropped++
	}
	rec.ticks = append(rec.ticks, t)
}

func (rec *Recorder) schedule() {
	rec.ev = rec.kernel.After(rec.every, func() {
		if !rec.running {
			return
		}
		rec.Sample()
		rec.schedule()
	})
}

// Ticks returns the recorded timeline in order.
func (rec *Recorder) Ticks() []Tick { return rec.ticks }

// Dropped returns how many ticks were evicted by the retention limit.
func (rec *Recorder) Dropped() uint64 { return rec.dropped }

// Series extracts one series' timeline by its canonical ID, skipping
// ticks taken before the series was registered.
func (rec *Recorder) Series(id string) (SeriesData, bool) {
	infos := rec.reg.Infos()
	idx := -1
	var info SeriesInfo
	for i, in := range infos {
		if in.ID == id {
			idx, info = i, in
			break
		}
	}
	if idx < 0 {
		return SeriesData{}, false
	}
	sd := SeriesData{Info: info}
	for _, t := range rec.ticks {
		if idx < len(t.Values) {
			sd.Points = append(sd.Points, Point{T: t.At, V: t.Values[idx]})
		}
	}
	return sd, true
}

// PublishKernel registers the kernel's own observability surface:
// events executed, pending queue length, virtual clock and wall-clock
// execution time.
func PublishKernel(reg *Registry, k *sim.Kernel, labels ...Label) {
	reg.MustRegisterFunc("sim_events_executed_total",
		"Events executed by the simulation kernel.", KindCounter,
		func() float64 { return float64(k.Executed()) }, labels...)
	reg.MustRegisterFunc("sim_pending_events",
		"Events currently queued in the kernel.", KindGauge,
		func() float64 { return float64(k.Len()) }, labels...)
	reg.MustRegisterFunc("sim_virtual_time_seconds",
		"Current virtual clock.", KindCounter,
		func() float64 { return k.Now().Seconds() }, labels...)
	reg.MustRegisterFunc("sim_wall_busy_seconds",
		"Wall-clock time spent executing events.", KindCounter,
		func() float64 { return k.WallBusy().Seconds() }, labels...)
}
