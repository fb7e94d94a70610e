// Package trace captures frames from the simulated network, renders them
// tcpdump-style, and writes standard pcap files that real tooling
// (tcpdump, Wireshark) can open — the validation workflow the paper's
// authors used on their physical testbed.
package trace

import (
	"fmt"
	"strings"
	"time"

	"barbican/internal/link"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// Direction distinguishes transmitted from received frames at the tap
// point.
type Direction int

// Tap directions.
const (
	TX Direction = iota + 1
	RX
)

// String returns "tx" or "rx".
func (d Direction) String() string {
	if d == TX {
		return "tx"
	}
	return "rx"
}

// Record is one captured frame.
type Record struct {
	At    time.Duration // virtual capture time
	Dir   Direction
	Frame *packet.Frame
}

// Capture accumulates frames from one or more taps, bounded by a record
// limit (oldest kept).
type Capture struct {
	kernel  *sim.Kernel
	limit   int
	records []Record
	dropped uint64
}

// DefaultLimit bounds captures that don't specify one.
const DefaultLimit = 65536

// NewCapture creates a capture. limit <= 0 uses DefaultLimit.
func NewCapture(k *sim.Kernel, limit int) *Capture {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Capture{kernel: k, limit: limit}
}

// Tap attaches the capture to a link endpoint. Only one tap per endpoint
// is supported; tapping again replaces the previous observer.
func (c *Capture) Tap(e *link.Endpoint) {
	e.SetTap(func(f *packet.Frame, tx bool) {
		dir := RX
		if tx {
			dir = TX
		}
		c.add(Record{At: c.kernel.Now(), Dir: dir, Frame: f.Clone()})
	})
}

func (c *Capture) add(r Record) {
	if len(c.records) >= c.limit {
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

// Format renders one record as a tcpdump-style line.
func Format(r Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6f %s ", r.At.Seconds(), r.Dir)
	s, err := packet.Summarize(r.Frame)
	if err != nil {
		fmt.Fprintf(&b, "[unparsed ethertype %#04x, %d bytes]", uint16(r.Frame.Type), len(r.Frame.Payload))
		return b.String()
	}
	if s.Sealed {
		fmt.Fprintf(&b, "VPG %v > %v: sealed, %d bytes", s.Src, s.Dst, s.IPLen)
		return b.String()
	}
	switch s.Proto {
	case packet.ProtoTCP:
		fmt.Fprintf(&b, "IP %v.%d > %v.%d: ", s.Src, s.SrcPort, s.Dst, s.DstPort)
		seg, err := tcpOf(r.Frame)
		if err != nil {
			b.WriteString("tcp [malformed]")
			return b.String()
		}
		fmt.Fprintf(&b, "Flags [%s], seq %d", tcpFlagShort(seg.Flags), seg.Seq)
		if seg.Flags.Has(packet.FlagACK) {
			fmt.Fprintf(&b, ", ack %d", seg.Ack)
		}
		fmt.Fprintf(&b, ", win %d, length %d", seg.Window, len(seg.Payload))
	case packet.ProtoUDP:
		fmt.Fprintf(&b, "IP %v.%d > %v.%d: UDP, length %d",
			s.Src, s.SrcPort, s.Dst, s.DstPort, s.IPLen-packet.IPv4HeaderLen-packet.UDPHeaderLen)
	case packet.ProtoICMP:
		fmt.Fprintf(&b, "IP %v > %v: ICMP", s.Src, s.Dst)
	default:
		fmt.Fprintf(&b, "IP %v > %v: proto %d, length %d", s.Src, s.Dst, uint8(s.Proto), s.IPLen)
	}
	return b.String()
}

// Dump renders the whole capture.
func (c *Capture) Dump() string {
	var b strings.Builder
	for _, r := range c.records {
		b.WriteString(Format(r))
		b.WriteByte('\n')
	}
	return b.String()
}

func tcpOf(f *packet.Frame) (packet.TCPSegment, error) {
	d, err := packet.UnmarshalDatagram(f.Payload)
	if err != nil {
		return packet.TCPSegment{}, err
	}
	return packet.UnmarshalTCPSegment(d.Header.Src, d.Header.Dst, d.Payload)
}

func tcpFlagShort(f packet.TCPFlags) string {
	var b strings.Builder
	if f.Has(packet.FlagSYN) {
		b.WriteByte('S')
	}
	if f.Has(packet.FlagFIN) {
		b.WriteByte('F')
	}
	if f.Has(packet.FlagRST) {
		b.WriteByte('R')
	}
	if f.Has(packet.FlagPSH) {
		b.WriteByte('P')
	}
	if f.Has(packet.FlagACK) {
		b.WriteByte('.')
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
