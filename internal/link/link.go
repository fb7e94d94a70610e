// Package link models the physical network: full-duplex Ethernet links
// with finite bit rates and a store-and-forward learning switch, matching
// the paper's 100 Mbps switched testbed (3Com 3C16734A).
//
// Links model serialization delay exactly — a 1518-byte frame plus
// preamble and inter-frame gap occupies 1538 byte times, which caps
// 100 Mbps at about 8,127 maximum-size frames/s — so frame-rate limits on
// the simulated wire match real Fast Ethernet.
package link

import (
	"time"

	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// Rate100Mbps is Fast Ethernet's bit rate, the paper's network speed,
// and the bit rate of every link.
const Rate100Mbps = 100_000_000

// Propagation is every link's one-way propagation delay (≈100 m of
// copper).
const Propagation = 500 * time.Nanosecond

// DefaultQueueFrames is the default per-direction transmit queue bound.
const DefaultQueueFrames = 128

// Config parameterizes a link.
type Config struct {
	// QueueFrames bounds the per-direction transmit queue; zero defaults
	// to DefaultQueueFrames.
	QueueFrames int
}

func (c Config) withDefaults() Config {
	if c.QueueFrames == 0 {
		c.QueueFrames = DefaultQueueFrames
	}
	return c
}

// Stats counts traffic through one direction of a link.
type Stats struct {
	SentFrames    uint64
	SentBytes     uint64 // wire bytes, including preamble/IFG
	DroppedFrames uint64 // transmit queue overflow

	// Fault-injection effects applied to accepted frames (all zero
	// unless a FaultInjector is attached).
	FaultLost       uint64 // frames consumed by the wire (loss or down window)
	FaultCorrupted  uint64 // frames delivered with flipped bits
	FaultDuplicated uint64 // frames delivered more than once
	FaultReordered  uint64 // frames delivered with extra delay
}

// FaultDelivery is one (possibly modified, possibly extra) arrival of
// a frame at the far end of the link.
type FaultDelivery struct {
	Frame *packet.Frame
	// ExtraDelay is added on top of the frame's normal
	// serialization + propagation arrival time.
	ExtraDelay time.Duration
}

// FaultOutcome is a FaultInjector's decision for one accepted frame.
// The zero value means "deliver normally" and costs nothing, so a
// mostly-quiet injector stays off the allocation path.
type FaultOutcome struct {
	// Lost consumes the frame: it occupies the wire (the sender saw a
	// successful Send) but never arrives. Reason annotates sampled
	// traces; DropNone defaults to DropFaultLoss.
	Lost   bool
	Reason tracing.DropReason

	// Deliveries, when non-empty, replaces the single on-time
	// delivery: one entry per arrival (corruption substitutes a
	// mangled clone, duplication adds entries, reordering adds
	// ExtraDelay). Ignored when Lost is set.
	Deliveries []FaultDelivery

	// Effect flags drive the per-endpoint Stats counters.
	Corrupted  bool
	Duplicated bool
	Reordered  bool
}

// FaultInjector decides the fate of each frame accepted onto a link
// direction. Implementations must be deterministic in virtual time
// (seeded rand only) — see internal/faults. Any extra frame an outcome
// delivers (a corrupted or duplicated copy) comes from frames; the link
// releases f itself when no delivery carries it.
type FaultInjector interface {
	Apply(f *packet.Frame, now time.Duration, frames *packet.FramePool) FaultOutcome
}

// Endpoint is one end of a full-duplex link. Devices send frames with
// Send and receive frames via the handler registered with Attach.
//
// Frames are owned: Send takes the frame, and the link hands it on to
// the peer's receiver, which then owns it, or releases it to the
// link's FramePool where it dies (a full queue, a fault loss, an
// endpoint with no receiver).
type Endpoint struct {
	dir  *direction
	peer *Endpoint
	recv func(*packet.Frame)
	tap  func(f *packet.Frame)
}

type direction struct {
	cfg       Config
	kernel    *sim.Kernel
	busyUntil time.Duration
	queued    int
	stats     Stats
	dst       *Endpoint
	tracer    *tracing.Tracer
	faults    FaultInjector
	frames    *packet.FramePool

	// deliverFn is the precomputed arrival callback, scheduled through
	// the kernel's pooled-event path so each frame in flight costs no
	// allocation beyond the frame itself. releaseFn frees the transmit
	// slot of a frame the injector consumed (no arrival to do it).
	deliverFn func(any)
	releaseFn func(any)
}

// New creates a full-duplex link on the kernel's clock and returns its
// two endpoints, which share a new FramePool.
func New(k *sim.Kernel, cfg Config) (*Endpoint, *Endpoint) {
	return newLink(k, cfg, &packet.FramePool{})
}

// newLink creates a full-duplex link whose endpoints draw on frames.
func newLink(k *sim.Kernel, cfg Config, frames *packet.FramePool) (*Endpoint, *Endpoint) {
	cfg = cfg.withDefaults()
	a := &Endpoint{dir: &direction{cfg: cfg, kernel: k, frames: frames}}
	b := &Endpoint{dir: &direction{cfg: cfg, kernel: k, frames: frames}}
	a.peer, b.peer = b, a
	a.dir.dst, b.dir.dst = b, a
	a.dir.deliverFn = a.dir.deliver
	b.dir.deliverFn = b.dir.deliver
	a.dir.releaseFn = a.dir.release
	b.dir.releaseFn = b.dir.release
	return a, b
}

// deliver completes one frame's flight: it frees the transmit slot and
// hands the frame to the destination endpoint's tap and receiver, or
// releases it when nothing receives there.
//
//barbican:noalloc
func (d *direction) deliver(x any) {
	f := x.(*packet.Frame)
	d.queued--
	dst := d.dst
	if dst.tap != nil {
		dst.tap(f)
	}
	if dst.recv != nil {
		dst.recv(f)
		return
	}
	d.frames.Put(f)
}

// release frees one transmit-queue slot for a frame that will never
// be delivered (consumed by fault injection at serialization end).
func (d *direction) release(any) { d.queued-- }

// Attach registers the frame handler invoked when a frame arrives at this
// endpoint.
func (e *Endpoint) Attach(recv func(*packet.Frame)) { e.recv = recv }

// Peer returns the other end of the link.
func (e *Endpoint) Peer() *Endpoint { return e.peer }

// Frames returns the pool the link's frames come from and return to:
// the switch's pool for a switch port, shared by every station on it.
func (e *Endpoint) Frames() *packet.FramePool { return e.dir.frames }

// SetFaults attaches (or with nil detaches) a fault injector to this
// endpoint's transmit direction. Disabled cost is one nil check on
// the send path.
func (e *Endpoint) SetFaults(fi FaultInjector) { e.dir.faults = fi }

// SetTap registers a passive observer: it sees every frame this endpoint
// transmits (at acceptance) and receives (at delivery); the frame's
// addresses tell the two apart. Passing nil removes the tap. Taps are
// how internal/trace captures traffic without perturbing it.
func (e *Endpoint) SetTap(tap func(f *packet.Frame)) { e.tap = tap }

// SetTracer attaches (or with nil detaches) a packet-lifecycle tracer
// to this endpoint's transmit direction: traced frames record one
// link span covering queueing, serialization, and propagation.
func (e *Endpoint) SetTracer(tr *tracing.Tracer) { e.dir.tracer = tr }

// Stats returns transmit-side statistics for this endpoint.
func (e *Endpoint) Stats() Stats { return e.dir.stats }

// Send queues a frame for transmission toward the peer endpoint and
// takes ownership of it. It reports false when the transmit queue is
// full and the frame was dropped (and released).
//
//barbican:noalloc
func (e *Endpoint) Send(f *packet.Frame) bool {
	d := e.dir
	if d.queued >= d.cfg.QueueFrames {
		d.stats.DroppedFrames++
		if d.tracer != nil && f.TraceID != 0 {
			d.tracer.Drop(f.TraceID, tracing.StageLink, tracing.DropLinkQueue)
		}
		d.frames.Put(f)
		return false
	}
	now := d.kernel.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + TransmitTime(f.WireLen(), Rate100Mbps)
	d.busyUntil = done
	d.queued++
	d.stats.SentFrames++
	d.stats.SentBytes += uint64(f.WireLen())
	if e.tap != nil {
		e.tap(f)
	}
	if d.tracer != nil && f.TraceID != 0 {
		// The full wire occupancy is known at acceptance: queue wait
		// (busyUntil), serialization, and propagation.
		d.tracer.Span(f.TraceID, tracing.StageLink, now, done+Propagation)
	}
	if d.faults != nil {
		d.sendWithFaults(f, now, done)
		return true
	}
	d.kernel.AfterCall(done+Propagation-now, d.deliverFn, f)
	return true
}

// sendWithFaults applies the injector's verdict to an already-accepted
// frame. The sender has seen a successful Send either way — faults act
// on the wire, not on admission.
func (d *direction) sendWithFaults(f *packet.Frame, now, done time.Duration) {
	out := d.faults.Apply(f, now, d.frames)
	if out.Lost {
		d.stats.FaultLost++
		reason := out.Reason
		if reason == tracing.DropNone {
			reason = tracing.DropFaultLoss
		}
		if d.tracer != nil && f.TraceID != 0 {
			d.tracer.Drop(f.TraceID, tracing.StageLink, reason)
		}
		// The wire is still occupied until serialization completes;
		// only then does the transmit slot free up.
		d.kernel.AfterCall(done-now, d.releaseFn, nil)
		d.frames.Put(f)
		return
	}
	if out.Corrupted {
		d.stats.FaultCorrupted++
	}
	if out.Duplicated {
		d.stats.FaultDuplicated++
	}
	if out.Reordered {
		d.stats.FaultReordered++
	}
	if len(out.Deliveries) == 0 {
		d.kernel.AfterCall(done+Propagation-now, d.deliverFn, f)
		return
	}
	// Each scheduled delivery decrements queued on arrival; balance
	// the extra arrivals duplication created.
	d.queued += len(out.Deliveries) - 1
	carried := false
	for _, dv := range out.Deliveries {
		carried = carried || dv.Frame == f
		d.kernel.AfterCall(done+Propagation+dv.ExtraDelay-now, d.deliverFn, dv.Frame)
	}
	if !carried {
		d.frames.Put(f) // replaced by a corrupted copy
	}
}

// Busy reports how much longer the transmit direction is occupied.
func (e *Endpoint) Busy() time.Duration {
	now := e.dir.kernel.Now()
	if e.dir.busyUntil <= now {
		return 0
	}
	return e.dir.busyUntil - now
}

// TransmitTime returns the serialization time of wireBytes at rateBits.
func TransmitTime(wireBytes int, rateBits int64) time.Duration {
	return time.Duration(int64(wireBytes) * 8 * int64(time.Second) / rateBits)
}

// MaxFrameRate returns the maximum frames/s a link of rateBits sustains
// for frames of the given payload length.
func MaxFrameRate(payloadLen int, rateBits int64) float64 {
	f := &packet.Frame{Payload: make([]byte, payloadLen)}
	return float64(rateBits) / float64(f.WireLen()*8)
}
