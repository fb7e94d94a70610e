package faults_test

import (
	"bytes"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/link"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

func frame(dst, src byte, payload int) *packet.Frame {
	return &packet.Frame{
		Dst:     packet.MAC{2, 0, 0, 0, 0, dst},
		Src:     packet.MAC{2, 0, 0, 0, 0, src},
		Type:    packet.EtherTypeIPv4,
		Payload: make([]byte, payload),
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"loss=0.1",
		"loss=0.1,corrupt=0.01,dup=0.02,reorder=0.05,reorder-delay=1ms",
		"loss=0.25,down=1s-2s,down=3s-3.5s",
		"corrupt=1",
	}
	for _, spec := range cases {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		p2, err := faults.ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(String(%q)=%q): %v", spec, p.String(), err)
		}
		if p.String() != p2.String() {
			t.Errorf("round trip %q: %q != %q", spec, p.String(), p2.String())
		}
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"loss",            // not key=value
		"loss=1.5",        // out of range
		"loss=-0.1",       // out of range
		"bogus=1",         // unknown key
		"down=2s",         // no window
		"down=2s-1s",      // inverted window
		"reorder-delay=0", // non-positive
		"reorder-delay=x", // unparsable
	} {
		if _, err := faults.ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", spec)
		}
	}
}

// TestInjectorDeterminism: identical (plan, seed, traffic) triples
// must produce identical decision streams and stats.
func TestInjectorDeterminism(t *testing.T) {
	plan, err := faults.ParsePlan("loss=0.2,corrupt=0.1,dup=0.1,reorder=0.2,reorder-delay=500us")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]time.Duration, []byte, link.Stats) {
		k := sim.NewKernel()
		a, b := link.New(k, link.Config{})
		a.SetFaults(plan, 42)
		var arrivals []time.Duration
		var payloads []byte
		b.Attach(func(f *packet.Frame) {
			arrivals = append(arrivals, k.Now())
			payloads = append(payloads, f.Payload...)
		})
		for i := 0; i < 200; i++ {
			f := frame(1, 2, 64)
			f.Payload[0] = byte(i)
			k.AtCall(time.Duration(i)*100*time.Microsecond, func(x any) {
				a.Send(x.(*packet.Frame))
			}, f)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return arrivals, payloads, a.Stats()
	}
	ar1, pl1, st1 := run()
	ar2, pl2, st2 := run()
	if len(ar1) != len(ar2) || st1 != st2 || !bytes.Equal(pl1, pl2) {
		t.Fatalf("same seed diverged: %d vs %d arrivals, stats %+v vs %+v", len(ar1), len(ar2), st1, st2)
	}
	for i := range ar1 {
		if ar1[i] != ar2[i] {
			t.Fatalf("arrival %d: %v vs %v", i, ar1[i], ar2[i])
		}
	}
	if st1.FaultLost == 0 || st1.FaultCorrupted == 0 || st1.FaultDuplicated == 0 || st1.FaultReordered == 0 {
		t.Errorf("expected every fault class to fire over 200 frames, got %+v", st1)
	}
	if got := uint64(len(ar1)); got != st1.SentFrames-st1.FaultLost+st1.FaultDuplicated {
		t.Errorf("deliveries %d, want sent-lost+dup = %d", got, st1.SentFrames-st1.FaultLost+st1.FaultDuplicated)
	}
}

func TestDownWindowLosesEverything(t *testing.T) {
	plan := faults.Plan{Down: []faults.Window{{From: time.Millisecond, To: 2 * time.Millisecond}}}
	k := sim.NewKernel()
	a, b := link.New(k, link.Config{})
	a.SetFaults(plan, 1)
	var got int
	b.Attach(func(*packet.Frame) { got++ })
	// One frame before, three inside, one after the window.
	for i, at := range []time.Duration{0, 1100 * time.Microsecond, 1500 * time.Microsecond,
		1900 * time.Microsecond, 2500 * time.Microsecond} {
		f := frame(1, 2, 64)
		_ = i
		k.AtCall(at, func(x any) { a.Send(x.(*packet.Frame)) }, f)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 2 {
		t.Fatalf("delivered %d frames, want 2 (outside the down window)", got)
	}
	if st := a.Stats(); st.FaultLost != 3 {
		t.Fatalf("FaultLost = %d, want 3", st.FaultLost)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	plan := faults.Plan{Corrupt: 1}
	k := sim.NewKernel()
	a, b := link.New(k, link.Config{})
	a.SetFaults(plan, 7)
	orig := frame(1, 2, 128)
	for i := range orig.Payload {
		orig.Payload[i] = byte(i)
	}
	var got *packet.Frame
	b.Attach(func(f *packet.Frame) { got = f })
	a.Send(orig)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if got == orig {
		t.Fatal("corrupted frame aliases the original")
	}
	diffBits := 0
	for i := range got.Payload {
		x := got.Payload[i] ^ orig.Payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

// TestDuplicateQueueAccounting floods a duplicating link hard enough
// to cycle the transmit queue and checks it never wedges: every
// accepted frame's slot is released, so the queue drains to zero.
func TestDuplicateQueueAccounting(t *testing.T) {
	plan := faults.Plan{Duplicate: 0.5, Loss: 0.2}
	k := sim.NewKernel()
	a, b := link.New(k, link.Config{QueueFrames: 4})
	a.SetFaults(plan, 99)
	var got int
	b.Attach(func(*packet.Frame) { got++ })
	sent := 0
	for i := 0; i < 400; i++ {
		k.AtCall(time.Duration(i)*50*time.Microsecond, func(x any) {
			if a.Send(x.(*packet.Frame)) {
				sent++
			}
		}, frame(1, 2, 200))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := a.Stats()
	if uint64(sent) != st.SentFrames {
		t.Fatalf("sent %d, stats say %d", sent, st.SentFrames)
	}
	if want := st.SentFrames - st.FaultLost + st.FaultDuplicated; uint64(got) != want {
		t.Fatalf("delivered %d, want %d", got, want)
	}
	// The queue must be fully drained: more sends still succeed.
	ok := false
	k.AtCall(k.Now()+time.Millisecond, func(any) { ok = a.Send(frame(1, 2, 64)) }, nil)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Fatal("queue wedged after fault churn: Send failed on idle link")
	}
}

func TestAttachCoversBothDirections(t *testing.T) {
	plan := faults.Plan{Loss: 1}
	k := sim.NewKernel()
	a, b := link.New(k, link.Config{})
	link.AttachFaults(a, plan, 5)
	var got int
	a.Attach(func(*packet.Frame) { got++ })
	b.Attach(func(*packet.Frame) { got++ })
	a.Send(frame(1, 2, 64))
	b.Send(frame(2, 1, 64))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("delivered %d frames across a fully lossy link, want 0", got)
	}
	if a.Stats().FaultLost != 1 || b.Stats().FaultLost != 1 {
		t.Fatalf("FaultLost a=%d b=%d, want 1 and 1", a.Stats().FaultLost, b.Stats().FaultLost)
	}
}
