package packet

import "errors"

// ErrDoubleRelease is the panic value of a FramePool.Put on a frame
// that is already free.
var ErrDoubleRelease = errors.New("packet: frame released twice")

// FramePoolRetain bounds how many released frames a FramePool keeps for
// reuse in each size class. Frames released beyond it are left to the
// garbage collector, so an idle pool holds at most this many MTU-sized
// buffers however many frames were once in flight at the same time.
const FramePoolRetain = 4

// smallFrameBuf is the payload capacity of the small size class: every
// control frame the testbed sends (TCP SYN/ACK/RST, ICMP, a sealed
// ACK, a minimum-size flood datagram) fits it. Larger payloads take a
// full MaxPayload buffer. Two classes keep a small frame from pinning
// an MTU buffer while it waits in a queue.
const smallFrameBuf = 96

// sizeClass is the freelist serving payloads of capacity n.
func sizeClass(n int) int {
	if n <= smallFrameBuf {
		return 0
	}
	return 1
}

// frameState is a frame's standing with the FramePool that issued it.
type frameState uint8

const (
	frameUnpooled frameState = iota // built outside any pool
	frameTaken                      // issued by Get or Clone, not yet released
	frameFree                       // released to the pool
)

// FramePool recycles frames and their payload buffers. A testbed owns
// one pool and every component on its wire draws from it, so the
// steady-state send → deliver path allocates nothing. A pool belongs to
// one kernel's goroutine and is not safe for concurrent use.
//
// Every frame a pool issues has exactly one owner at a time: whoever
// holds it last calls Put. Put panics on a frame that is already free,
// and ignores a frame no pool issued (a frame a caller built itself).
type FramePool struct {
	free     [2][]*Frame // by sizeClass
	taken    uint64
	released uint64
}

// Get returns a frame with the given header, a zero trace ID and an
// empty payload whose capacity is at least n bytes, ready for a
// MarshalTo-style append.
//
//barbican:noalloc
func (p *FramePool) Get(dst, src MAC, typ EtherType, n int) *Frame {
	c := sizeClass(n)
	free := p.free[c]
	var f *Frame
	if k := len(free); k > 0 {
		f = free[k-1]
		free[k-1] = nil
		p.free[c] = free[:k-1]
	} else {
		f = &Frame{} //barbican:allow alloc -- cold path: the freelist is empty
	}
	buf := f.Payload[:0]
	if cap(buf) < n {
		size := smallFrameBuf
		if c > 0 {
			size = max(n, MaxPayload)
		}
		buf = make([]byte, 0, size) //barbican:allow alloc -- cold path: a new frame, or a payload beyond the MTU
	}
	*f = Frame{Dst: dst, Src: src, Type: typ, Payload: buf, state: frameTaken}
	p.taken++
	return f
}

// Clone returns a pooled deep copy of f, trace ID included.
//
//barbican:noalloc
func (p *FramePool) Clone(f *Frame) *Frame {
	c := p.Get(f.Dst, f.Src, f.Type, len(f.Payload))
	c.TraceID = f.TraceID
	c.Payload = append(c.Payload, f.Payload...)
	return c
}

// Put releases f back to the pool. It is the frame's last use: the
// caller must not touch f afterwards.
//
//barbican:noalloc
func (p *FramePool) Put(f *Frame) {
	switch f.state {
	case frameUnpooled:
		return
	case frameFree:
		panic(ErrDoubleRelease)
	}
	f.state = frameFree
	p.released++
	if c := sizeClass(cap(f.Payload)); len(p.free[c]) < FramePoolRetain {
		p.free[c] = append(p.free[c], f) //barbican:allow alloc -- grows once, to FramePoolRetain
	}
}

// Outstanding returns how many issued frames have not been released.
// With no frame in flight it is zero: a positive count at rest is a
// frame that some path forgot to release.
func (p *FramePool) Outstanding() uint64 { return p.taken - p.released }

// Taken returns how many frames the pool has issued.
func (p *FramePool) Taken() uint64 { return p.taken }
