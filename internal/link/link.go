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
	"math/rand"
	"time"

	"barbican/internal/faults"
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

// duplicateGap is the fixed extra delay of a duplicated frame's second
// copy, enough to land it behind the first.
const duplicateGap = time.Microsecond

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

	// Fault-plan effects applied to accepted frames (all zero unless
	// SetFaults gave the direction a plan).
	FaultLost       uint64 // frames consumed by the wire (loss or down window)
	FaultCorrupted  uint64 // frames delivered with flipped bits
	FaultDuplicated uint64 // frames delivered more than once
	FaultReordered  uint64 // frames delivered with extra delay
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
	rng       *rand.Rand // the fault plan's decisions; nil without a plan
	frames    *packet.FramePool

	// deliverFn is the precomputed arrival callback, scheduled through
	// the kernel's pooled-event path so each frame in flight costs no
	// allocation beyond the frame itself. releaseFn frees the transmit
	// slot of a frame the fault plan consumed (no arrival to do it).
	deliverFn func(any)
	releaseFn func(any)

	plan faults.Plan
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
// be delivered (consumed by the fault plan at serialization end).
func (d *direction) release(any) { d.queued-- }

// Attach registers the frame handler invoked when a frame arrives at this
// endpoint.
func (e *Endpoint) Attach(recv func(*packet.Frame)) { e.recv = recv }

// Peer returns the other end of the link.
func (e *Endpoint) Peer() *Endpoint { return e.peer }

// Frames returns the pool the link's frames come from and return to:
// the switch's pool for a switch port, shared by every station on it.
func (e *Endpoint) Frames() *packet.FramePool { return e.dir.frames }

// SetFaults applies plan to this endpoint's transmit direction, every
// random decision drawn from a private generator seeded with seed, so a
// (plan, seed, traffic) triple behaves the same on every run. A plan
// that injects nothing (the zero Plan) detaches it. Disabled cost is
// one nil check on the send path.
func (e *Endpoint) SetFaults(plan faults.Plan, seed int64) {
	e.dir.plan, e.dir.rng = plan, nil
	if plan.String() != "none" {
		e.dir.rng = rand.New(rand.NewSource(seed))
	}
}

// AttachFaults applies plan to both directions of e's link: seed to e's
// transmit side, seed+1 to the peer's. It is how a host's access link
// (the policy server's management channel, a flood target's data link)
// is made faulty in both directions.
func AttachFaults(e *Endpoint, plan faults.Plan, seed int64) {
	e.SetFaults(plan, seed)
	e.peer.SetFaults(plan, seed+1)
}

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
	if d.rng != nil {
		d.sendWithFaults(f, now, done)
		return true
	}
	d.kernel.AfterCall(done+Propagation-now, d.deliverFn, f)
	return true
}

// sendWithFaults applies the direction's fault plan to an accepted
// frame. Down windows are checked first (no randomness spent), then
// loss, corruption, reordering and duplication each draw once in that
// fixed order, so the decisions are a pure function of (seed, frame
// sequence). The sender has seen a successful Send either way: faults
// act on the wire, not on admission.
//
//barbican:noalloc
func (d *direction) sendWithFaults(f *packet.Frame, now, done time.Duration) {
	p := &d.plan
	reason := tracing.DropNone
	for _, w := range p.Down {
		if now >= w.From && now < w.To {
			reason = tracing.DropLinkDown
			break
		}
	}
	if reason == tracing.DropNone && p.Loss > 0 && d.rng.Float64() < p.Loss {
		reason = tracing.DropFaultLoss
	}
	if reason != tracing.DropNone {
		d.stats.FaultLost++
		if d.tracer != nil && f.TraceID != 0 {
			d.tracer.Drop(f.TraceID, tracing.StageLink, reason)
		}
		// The wire is still occupied until serialization completes;
		// only then does the transmit slot free up.
		d.kernel.AfterCall(done-now, d.releaseFn, nil)
		d.frames.Put(f)
		return
	}
	deliver := f
	if p.Corrupt > 0 && d.rng.Float64() < p.Corrupt && len(f.Payload) > 0 {
		deliver = d.frames.Clone(f)
		bit := d.rng.Intn(len(deliver.Payload) * 8)
		deliver.Payload[bit/8] ^= 1 << (bit % 8)
		d.stats.FaultCorrupted++
	}
	arrive := done + Propagation - now
	if p.Reorder > 0 && d.rng.Float64() < p.Reorder {
		bound := p.ReorderDelay
		if bound <= 0 {
			bound = faults.DefaultReorderDelay
		}
		arrive += time.Duration(1 + d.rng.Int63n(int64(bound)))
		d.stats.FaultReordered++
	}
	dup := p.Duplicate > 0 && d.rng.Float64() < p.Duplicate
	d.kernel.AfterCall(arrive, d.deliverFn, deliver)
	if dup {
		// Each arrival frees a transmit slot: balance the second one.
		d.stats.FaultDuplicated++
		d.queued++
		d.kernel.AfterCall(arrive+duplicateGap, d.deliverFn, d.frames.Clone(deliver))
	}
	if deliver != f {
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
