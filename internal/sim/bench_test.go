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
// on a card's 128-slot ring. Each op fires one pooled AfterCall event,
// which reschedules itself, so the depth holds and the op allocates
// nothing.
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
	}
}
