// Package trace captures frames from the simulated network and writes
// them as standard pcap files that real tooling (tcpdump, Wireshark)
// can open — the validation workflow the paper's authors used on their
// physical testbed.
package trace

import (
	"time"

	"barbican/internal/link"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// Record is one captured frame.
type Record struct {
	At    time.Duration // virtual capture time
	Frame *packet.Frame
}

// CaptureLimit bounds the records a capture retains; past it the
// oldest are evicted.
const CaptureLimit = 65536

// Capture accumulates frames from one or more taps, keeping the newest
// CaptureLimit.
type Capture struct {
	kernel  *sim.Kernel
	records []Record
	dropped uint64
}

// NewCapture creates an empty capture on k's virtual clock.
func NewCapture(k *sim.Kernel) *Capture { return &Capture{kernel: k} }

// Tap attaches the capture to a link endpoint. Only one tap per endpoint
// is supported; tapping again replaces the previous observer.
func (c *Capture) Tap(e *link.Endpoint) {
	e.SetTap(func(f *packet.Frame) {
		c.add(Record{At: c.kernel.Now(), Frame: f.Clone()})
	})
}

func (c *Capture) add(r Record) {
	if len(c.records) >= CaptureLimit {
		c.records = c.records[1:]
		c.dropped++
	}
	c.records = append(c.records, r)
}

// Records returns the captured frames in order.
func (c *Capture) Records() []Record { return append([]Record(nil), c.records...) }

// Len returns the number of retained records.
func (c *Capture) Len() int { return len(c.records) }

// Dropped returns how many records were evicted by the limit.
func (c *Capture) Dropped() uint64 { return c.dropped }
