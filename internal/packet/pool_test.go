package packet

import (
	"bytes"
	"testing"
)

var (
	poolDst = MAC{2, 0, 0, 0, 0, 2}
	poolSrc = MAC{2, 0, 0, 0, 0, 1}
)

// TestFramePoolReusesAndResets: a released frame comes back from Get
// with the new header, a zero trace ID and an empty payload over the
// same buffer, so reuse leaks nothing from the frame's last trip.
func TestFramePoolReusesAndResets(t *testing.T) {
	var pool FramePool
	f := pool.Get(poolDst, poolSrc, EtherTypeVPG, 40)
	f.Payload = append(f.Payload, bytes.Repeat([]byte{0xff}, 40)...)
	f.TraceID = 99
	buf := &f.Payload[:1][0]
	pool.Put(f)

	g := pool.Get(Broadcast, poolDst, EtherTypeIPv4, IPv4HeaderLen)
	if g != f {
		t.Fatal("Get did not reuse the released frame")
	}
	if g.Dst != Broadcast || g.Src != poolDst || g.Type != EtherTypeIPv4 || g.TraceID != 0 || len(g.Payload) != 0 {
		t.Fatalf("reused frame not re-initialized: %+v", g)
	}
	if &g.Payload[:1][0] != buf {
		t.Fatal("reused frame did not keep its buffer")
	}
	if pool.Taken() != 2 || pool.Outstanding() != 1 {
		t.Fatalf("taken %d outstanding %d, want 2 and 1", pool.Taken(), pool.Outstanding())
	}
}

// TestFramePoolSizeClasses: a small frame never takes an MTU buffer and
// a full-size one never takes a small buffer, so a queued control frame
// pins no more memory than it needs.
func TestFramePoolSizeClasses(t *testing.T) {
	var pool FramePool
	big := pool.Get(poolDst, poolSrc, EtherTypeIPv4, MaxPayload)
	small := pool.Get(poolDst, poolSrc, EtherTypeIPv4, 40)
	if cap(big.Payload) < MaxPayload || cap(small.Payload) != smallFrameBuf {
		t.Fatalf("capacities %d and %d, want >= %d and %d", cap(big.Payload), cap(small.Payload), MaxPayload, smallFrameBuf)
	}
	pool.Put(big)
	pool.Put(small)
	if f := pool.Get(poolDst, poolSrc, EtherTypeIPv4, 60); f != small {
		t.Error("a small request did not reuse the small frame")
	}
	if f := pool.Get(poolDst, poolSrc, EtherTypeIPv4, 1000); f != big {
		t.Error("a large request did not reuse the large frame")
	}
}

// TestFramePoolRetentionBound: however many frames come back at once,
// the pool keeps at most FramePoolRetain of each size class.
func TestFramePoolRetentionBound(t *testing.T) {
	var pool FramePool
	var out []*Frame
	for i := 0; i < 4*FramePoolRetain; i++ {
		out = append(out, pool.Get(poolDst, poolSrc, EtherTypeIPv4, 40), pool.Get(poolDst, poolSrc, EtherTypeIPv4, MaxPayload))
	}
	for _, f := range out {
		pool.Put(f)
	}
	for c, free := range pool.free {
		if len(free) != FramePoolRetain {
			t.Errorf("size class %d keeps %d frames, want %d", c, len(free), FramePoolRetain)
		}
	}
	if pool.Outstanding() != 0 {
		t.Errorf("%d frames outstanding after every release", pool.Outstanding())
	}
}

// TestFramePoolCloneAndForeignFrames: Clone is a deep pooled copy with
// the trace ID, Frame.Clone a heap copy no pool owns, and Put leaves a
// frame it never issued alone.
func TestFramePoolCloneAndForeignFrames(t *testing.T) {
	var pool FramePool
	orig := &Frame{Dst: poolDst, Src: poolSrc, Type: EtherTypeIPv4, Payload: []byte{1, 2, 3}, TraceID: 7}
	c := pool.Clone(orig)
	c.Payload[0] = 9
	if orig.Payload[0] != 1 || c.TraceID != 7 || c.Dst != poolDst || !bytes.Equal(c.Payload[1:], []byte{2, 3}) {
		t.Fatalf("pooled clone %+v of %+v is not a deep copy", c, orig)
	}
	heap := c.Clone()
	pool.Put(c)
	pool.Put(heap)
	pool.Put(orig)
	pool.Put(orig) // a foreign frame is never marked, so no double release
	if pool.Outstanding() != 0 || len(pool.free[0]) != 1 {
		t.Fatalf("outstanding %d, free %d: foreign frames entered the pool", pool.Outstanding(), len(pool.free[0]))
	}
}

// TestFramePoolDoubleReleasePanics: releasing a frame that is already
// back in its pool panics instead of handing one buffer to two owners.
func TestFramePoolDoubleReleasePanics(t *testing.T) {
	var pool FramePool
	f := pool.Get(poolDst, poolSrc, EtherTypeIPv4, 64)
	pool.Put(f)
	defer func() {
		if r := recover(); r != ErrDoubleRelease {
			t.Fatalf("second release recovered %v, want %v", r, ErrDoubleRelease)
		}
	}()
	pool.Put(f)
}
