package link

import (
	"math"
	"testing"
	"time"

	"barbican/internal/faults"
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

func TestLinkDeliversFrames(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{})
	var got []*packet.Frame
	b.Attach(func(f *packet.Frame) { got = append(got, f) })
	if !a.Send(frame(1, 2, 100)) {
		t.Fatal("Send returned false")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{})
	var arrival time.Duration
	b.Attach(func(f *packet.Frame) { arrival = k.Now() })
	f := frame(1, 2, 1500)
	a.Send(f)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := TransmitTime(f.WireLen(), Rate100Mbps) + Propagation
	if arrival != want {
		t.Errorf("arrival at %v, want %v", arrival, want)
	}
	// 1538 wire bytes at 100 Mbps = 123.04 µs, plus 0.5 µs on the wire.
	if arrival != 123540*time.Nanosecond {
		t.Errorf("1518-byte frame arrived after %v, want 123.54µs", arrival)
	}
}

func TestLinkBackToBackFramesQueue(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{})
	var arrivals []time.Duration
	b.Attach(func(f *packet.Frame) { arrivals = append(arrivals, k.Now()) })
	f := frame(1, 2, 1500)
	for i := 0; i < 3; i++ {
		a.Send(f.Clone())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(arrivals))
	}
	tx := TransmitTime(f.WireLen(), Rate100Mbps)
	for i := 1; i < 3; i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap != tx {
			t.Errorf("inter-arrival %d = %v, want %v", i, gap, tx)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{QueueFrames: 2})
	delivered := 0
	b.Attach(func(f *packet.Frame) { delivered++ })
	sent := 0
	for i := 0; i < 5; i++ {
		if a.Send(frame(1, 2, 1500)) {
			sent++
		}
	}
	if sent != 2 {
		t.Errorf("accepted %d frames, want 2", sent)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2", delivered)
	}
	if st := a.Stats(); st.DroppedFrames != 3 || st.SentFrames != 2 {
		t.Errorf("stats = %+v, want 3 dropped / 2 sent", st)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{})
	gotA, gotB := 0, 0
	a.Attach(func(f *packet.Frame) { gotA++ })
	b.Attach(func(f *packet.Frame) { gotB++ })
	a.Send(frame(1, 2, 100))
	b.Send(frame(2, 1, 100))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotA != 1 || gotB != 1 {
		t.Errorf("gotA=%d gotB=%d, want 1/1 (directions must not share capacity)", gotA, gotB)
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{QueueFrames: 1 << 20})
	bytesDelivered := 0
	b.Attach(func(f *packet.Frame) { bytesDelivered += len(f.Payload) })
	// Offer far more than one second of traffic, then run for one second.
	f := frame(1, 2, 1500)
	for i := 0; i < 10_000; i++ {
		a.Send(f.Clone())
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// Goodput at 100 Mbps with 1538 wire bytes per 1500 payload bytes:
	// 100e6/8 * 1500/1538 ≈ 12.19 MB.
	want := 100e6 / 8 * 1500 / 1538
	if math.Abs(float64(bytesDelivered)-want)/want > 0.01 {
		t.Errorf("delivered %d bytes in 1s, want ≈%.0f", bytesDelivered, want)
	}
}

func TestMaxFrameRate(t *testing.T) {
	// 1518-byte frames (1500 payload): ≈8127 fps at 100 Mbps.
	got := MaxFrameRate(1500, Rate100Mbps)
	if math.Abs(got-8127.4) > 1 {
		t.Errorf("MaxFrameRate(1500) = %.1f, want ≈8127", got)
	}
	// Minimum-size frames: ≈148,810 fps at 100 Mbps.
	got = MaxFrameRate(46, Rate100Mbps)
	if math.Abs(got-148809.5) > 10 {
		t.Errorf("MaxFrameRate(46) = %.1f, want ≈148810", got)
	}
}

func TestBusyReflectsQueuedTransmissions(t *testing.T) {
	k := sim.NewKernel()
	a, _ := New(k, Config{})
	if a.Busy() != 0 {
		t.Error("idle link reports busy")
	}
	f := frame(1, 2, 1500)
	a.Send(f)
	a.Send(f.Clone())
	if want := 2 * TransmitTime(f.WireLen(), Rate100Mbps); a.Busy() != want {
		t.Errorf("Busy = %v, want %v", a.Busy(), want)
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	p2 := sw.NewPort()
	p3 := sw.NewPort()

	got := map[int]int{}
	p1.Attach(func(f *packet.Frame) { got[1]++ })
	p2.Attach(func(f *packet.Frame) { got[2]++ })
	p3.Attach(func(f *packet.Frame) { got[3]++ })

	// First frame from host 1 to unknown host 2: flooded to ports 2 and 3.
	p1.Send(frame(2, 1, 100))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[2] != 1 || got[3] != 1 || got[1] != 0 {
		t.Fatalf("flood delivery = %v, want ports 2,3 only", got)
	}

	// Host 2 replies; switch has learned 1's port, so only port 1 sees it,
	// and now both MACs are learned.
	p2.Send(frame(1, 2, 100))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 1 || got[3] != 1 {
		t.Fatalf("reply delivery = %v, want unicast to port 1", got)
	}

	// Now 1→2 is unicast: port 3 must not see it.
	p1.Send(frame(2, 1, 100))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[2] != 2 || got[3] != 1 {
		t.Fatalf("learned delivery = %v, want unicast to port 2", got)
	}
	if sw.Stats().Forwarded != 2 || sw.Stats().Flooded != 1 {
		t.Errorf("switch stats = %+v, want 2 forwarded / 1 flooded", sw.Stats())
	}
}

// A frame to a learned port crosses two links and the switch hop on
// pooled kernel events: at steady state it allocates nothing.
func TestSwitchForwardAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1, p2 := sw.NewPort(), sw.NewPort()
	delivered := 0
	p1.Attach(func(*packet.Frame) {})
	p2.Attach(func(*packet.Frame) { delivered++ })
	// Teach the switch both stations.
	p1.Send(frame(2, 1, 100))
	p2.Send(frame(1, 2, 100))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	f := frame(2, 1, 100)
	forwarded := sw.Stats().Forwarded
	allocs := testing.AllocsPerRun(100, func() {
		p1.Send(f)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("learned-port forward allocates %v per frame, want 0", allocs)
	}
	if got := sw.Stats().Forwarded - forwarded; got != 101 {
		t.Errorf("forwarded %d frames, want 101 (warm-up plus 100 runs)", got)
	}
	if delivered != 102 {
		t.Errorf("port 2 received %d frames, want 102", delivered)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	p2 := sw.NewPort()
	p3 := sw.NewPort()
	got := map[int]int{}
	p1.Attach(func(f *packet.Frame) { got[1]++ })
	p2.Attach(func(f *packet.Frame) { got[2]++ })
	p3.Attach(func(f *packet.Frame) { got[3]++ })

	f := frame(0, 1, 100)
	f.Dst = packet.Broadcast
	p1.Send(f)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 0 || got[2] != 1 || got[3] != 1 {
		t.Errorf("broadcast delivery = %v, want all but sender", got)
	}
}

func TestSwitchFiltersSamePortDestination(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	p2 := sw.NewPort()
	got := 0
	p2.Attach(func(f *packet.Frame) { got++ })
	p1.Attach(func(f *packet.Frame) { got++ })

	// Learn two MACs behind port 1 (a hub behind the port), then send
	// between them: the switch must filter the frame.
	p1.Send(frame(9, 1, 64))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got = 0
	p1.Send(frame(1, 1, 64)) // src MAC 1 to dst MAC 1's own port
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("same-port frame was forwarded %d times", got)
	}
}

func TestSwitchLearnedPort(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	sw.NewPort()
	m := packet.MAC{2, 0, 0, 0, 0, 7}
	if sw.LearnedPort(m) != -1 {
		t.Error("unlearned MAC has a port")
	}
	f := frame(9, 7, 64)
	f.Src = m
	p1.Send(f)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.LearnedPort(m) != 0 {
		t.Errorf("LearnedPort = %d, want 0", sw.LearnedPort(m))
	}
}

func TestSwitchDoesNotLearnBroadcastSource(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	sw.NewPort()
	f := frame(1, 0, 64)
	f.Src = packet.Broadcast
	p1.Send(f)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.LearnedPort(packet.Broadcast) != -1 {
		t.Error("switch learned the broadcast address")
	}
}

func TestEndpointTapSeesBothDirections(t *testing.T) {
	k := sim.NewKernel()
	a, b := New(k, Config{})
	b.Attach(func(f *packet.Frame) {})
	var tx, rx int
	aMAC := frame(1, 2, 0).Src // a sends as 2, b as 1
	a.SetTap(func(f *packet.Frame) {
		if f.Src == aMAC {
			tx++
		} else {
			rx++
		}
	})
	a.Send(frame(1, 2, 100))
	b.Send(frame(2, 1, 100))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tx != 1 || rx != 1 {
		t.Errorf("tap saw tx=%d rx=%d, want 1/1", tx, rx)
	}
	// Removing the tap stops observation.
	a.SetTap(nil)
	a.Send(frame(1, 2, 100))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tx != 1 {
		t.Errorf("tap fired after removal")
	}
}

// A direction that reorders, duplicates or corrupts every frame decides
// and schedules each one allocation-free at steady state: the extra
// copies come from the link's pool and go back to it on delivery.
func TestFaultPathAllocatesNothing(t *testing.T) {
	for _, tt := range []struct {
		name     string
		plan     faults.Plan
		arrivals int // per frame sent
	}{
		{"reorder", faults.Plan{Reorder: 1}, 1},
		{"duplicate", faults.Plan{Duplicate: 1}, 2},
		{"corrupt", faults.Plan{Corrupt: 1}, 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			k := sim.NewKernel()
			a, b := New(k, Config{})
			a.SetFaults(tt.plan, 1)
			pool := a.Frames()
			delivered := 0
			b.Attach(func(f *packet.Frame) {
				delivered++
				pool.Put(f)
			})
			send := func() {
				f := pool.Get(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}, packet.EtherTypeIPv4, 100)
				f.Payload = f.Payload[:100]
				a.Send(f)
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			}
			send() // fill the pool and the kernel's event pool
			if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
				t.Errorf("%s plan allocates %v per frame, want 0", tt.name, allocs)
			}
			if want := 102 * tt.arrivals; delivered != want {
				t.Errorf("delivered %d frames, want %d", delivered, want)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("%d frames outstanding after the run, want 0", n)
			}
		})
	}
}
