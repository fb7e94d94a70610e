package link

import (
	"time"

	"barbican/internal/obs/tracing"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// switchLatency is the store-and-forward processing latency of the
// modeled switch, on top of full-frame reception (which the ingress link
// already accounts for).
const switchLatency = 5 * time.Microsecond

// SwitchConfig parameterizes a Switch.
type SwitchConfig struct {
	// Link configures the access links created by NewPort.
	Link Config
}

// SwitchStats counts switch-level activity.
type SwitchStats struct {
	Forwarded uint64 // frames forwarded to a learned port
	Flooded   uint64 // frames flooded (unknown destination or broadcast)
	Dropped   uint64 // frames dropped at egress (link queue overflow)
}

// Switch is a store-and-forward Ethernet learning switch.
type Switch struct {
	kernel *sim.Kernel
	cfg    SwitchConfig
	ports  []*Endpoint // switch-side endpoints
	// egressFns holds each port's precomputed store-and-forward
	// callback, scheduled on the kernel's pooled-event path so a
	// switched frame costs no event or closure allocation.
	egressFns []func(any)
	macs      map[packet.MAC]int
	stats     SwitchStats
	tracer    *tracing.Tracer
	// frames is the one FramePool every port's link draws on.
	frames *packet.FramePool
}

// NewSwitch creates an empty switch with its own FramePool.
func NewSwitch(k *sim.Kernel, cfg SwitchConfig) *Switch {
	return &Switch{kernel: k, cfg: cfg, macs: make(map[packet.MAC]int), frames: &packet.FramePool{}}
}

// NewPort creates an access link, connects one end to the switch, and
// returns the station-side endpoint for a host NIC to use.
func (s *Switch) NewPort() *Endpoint {
	station, swSide := newLink(s.kernel, s.cfg.Link, s.frames)
	port := len(s.ports)
	s.ports = append(s.ports, swSide)
	s.egressFns = append(s.egressFns, func(x any) { s.egress(port, x.(*packet.Frame)) })
	swSide.SetTracer(s.tracer)
	swSide.Attach(func(f *packet.Frame) { s.ingress(port, f) })
	return station
}

// SetTracer attaches (or with nil detaches) a packet-lifecycle tracer
// to the switch and every switch-side port direction: traced frames
// record the store-and-forward latency and egress-link spans.
func (s *Switch) SetTracer(tr *tracing.Tracer) {
	s.tracer = tr
	for _, p := range s.ports {
		p.SetTracer(tr)
	}
}

// Ports returns the number of attached ports.
func (s *Switch) Ports() int { return len(s.ports) }

// Stats returns switch-level statistics.
func (s *Switch) Stats() SwitchStats { return s.stats }

// Frames returns the FramePool shared by every port's link.
func (s *Switch) Frames() *packet.FramePool { return s.frames }

// LearnedPort returns the port a MAC was learned on, or -1.
func (s *Switch) LearnedPort(m packet.MAC) int {
	if p, ok := s.macs[m]; ok {
		return p
	}
	return -1
}

// ingress learns the frame's source and holds it for the
// store-and-forward latency before egress.
//
//barbican:noalloc
func (s *Switch) ingress(port int, f *packet.Frame) {
	if !f.Src.IsBroadcast() {
		s.macs[f.Src] = port
	}
	if s.tracer != nil && f.TraceID != 0 {
		now := s.kernel.Now()
		s.tracer.Span(f.TraceID, tracing.StageSwitch, now, now+switchLatency)
	}
	s.kernel.AfterCall(switchLatency, s.egressFns[port], f)
}

// egress forwards a frame to its learned port, or floods a copy to
// every other port and releases the original.
//
//barbican:noalloc
func (s *Switch) egress(inPort int, f *packet.Frame) {
	if !f.Dst.IsBroadcast() {
		if out, ok := s.macs[f.Dst]; ok {
			if out == inPort {
				s.frames.Put(f) // destination is behind the ingress port; filter
				return
			}
			s.stats.Forwarded++
			if !s.ports[out].Send(f) {
				s.stats.Dropped++
			}
			return
		}
	}
	s.stats.Flooded++
	for i, p := range s.ports {
		if i == inPort {
			continue
		}
		if !p.Send(s.frames.Clone(f)) {
			s.stats.Dropped++
		}
	}
	s.frames.Put(f)
}
