package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
}

func BenchmarkEventChurn(b *testing.B) {
	// A self-rescheduling event chain, the simulator's hot pattern.
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.After(time.Microsecond, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelQueue runs the queue at the steady depths the
// simulator holds under flood: ≈256 pending events on flood-walk and
// ≈384 on syn-churn, mostly two completion events per in-flight frame
// on a card's 128-slot ring. In the depth cases each op fires one
// pooled AfterCall event, which reschedules itself, so the depth holds
// and the op allocates nothing; the lane case puts the ring's events
// on a Lane, as nic.Processor does.
func BenchmarkKernelQueue(b *testing.B) {
	for _, depth := range []int{256, 384} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := NewKernel()
			rng := rand.New(rand.NewSource(1))
			type slot struct{ delay time.Duration }
			var fire func(any)
			fire = func(x any) {
				s := x.(*slot)
				k.AfterCall(s.delay, fire, s)
			}
			for i := 0; i < depth; i++ {
				s := &slot{delay: time.Duration(1+rng.Intn(1000)) * time.Microsecond}
				k.AfterCall(s.delay, fire, s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
			if k.Len() != depth {
				b.Fatalf("queue depth %d, want %d", k.Len(), depth)
			}
		})
	} // lane is card-shaped: a full 128-slot ring keeps a drain and a
	// completion pending per frame, all on the processor's lane, and
	// each completion admits the next frame. A few self-rescheduling
	// timers share the heap with the lane's head.
	b.Run("lane", func(b *testing.B) {
		const slots, timers = 128, 4
		k := NewKernel()
		lane := k.NewLane(2 * slots)
		rng := rand.New(rand.NewSource(1))
		var busyUntil time.Duration
		drain := func(any) {}
		var complete func(any)
		admit := func() {
			busyUntil = max(busyUntil, k.Now()) + time.Duration(5+rng.Intn(10))*time.Microsecond
			lane.AtCall(busyUntil, drain, nil)
			lane.AtCall(busyUntil, complete, nil)
		}
		complete = func(any) { admit() }
		for i := 0; i < slots; i++ {
			admit()
		}
		type slot struct{ delay time.Duration }
		var tick func(any)
		tick = func(x any) {
			s := x.(*slot)
			k.AfterCall(s.delay, tick, s)
		}
		for i := 0; i < timers; i++ {
			s := &slot{delay: time.Duration(1+rng.Intn(1000)) * time.Microsecond}
			k.AfterCall(s.delay, tick, s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
		// A fired drain leaves its frame's completion alone on the lane
		// for one step.
		if d := k.Len(); d < 2*slots+timers-1 || d > 2*slots+timers {
			b.Fatalf("queue depth %d, want %d", d, 2*slots+timers)
		}
	})
}
