package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Millisecond
		k.At(d, func() { got = append(got, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("executed %d events, want 5", len(got))
	}
	if k.Now() != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", k.Now())
	}
}

func TestKernelTieBreaksBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order got %v", got)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.At(time.Second, func() {
		k.After(500*time.Millisecond, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", at)
	}
}

func TestKernelPastSchedulingClamps(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(time.Second, func() {
		k.At(0, func() { fired = true })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event scheduled in the past never fired")
	}
	if k.Now() != time.Second {
		t.Errorf("clock moved backwards: %v", k.Now())
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(time.Second, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelOneOfManyAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, k.At(time.Second, func() { got = append(got, i) }))
	}
	events[2].Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(time.Duration(i)*time.Second, func() { count++ })
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if count != 5 {
		t.Errorf("executed %d events, want 5", count)
	}
	if k.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", k.Now())
	}
	if err := k.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 8 {
		t.Errorf("executed %d events, want 8", count)
	}
}

func TestRunUntilWithEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel()
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if k.Now() != time.Minute {
		t.Errorf("Now() = %v, want 1m", k.Now())
	}
}

func TestKernelDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(WithSeed(seed))
		var vals []int64
		for i := 0; i < 5; i++ {
			k.After(time.Duration(i)*time.Second, func() {
				vals = append(vals, k.Rand().Int63())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different streams: %v vs %v", a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// Property: for any set of scheduling offsets, events execute in
// non-decreasing timestamp order and the executed count matches.
func TestEventOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		k := NewKernel()
		var fired []time.Duration
		for _, off := range offsets {
			d := time.Duration(off) * time.Microsecond
			k.At(d, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKernelCounters(t *testing.T) {
	k := NewKernel()
	if k.Len() != 0 || k.Executed() != 0 {
		t.Fatal("fresh kernel not empty")
	}
	k.At(time.Second, func() {})
	k.At(2*time.Second, func() {})
	if k.Len() != 2 {
		t.Errorf("Len = %d, want 2", k.Len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 2 || k.Len() != 0 {
		t.Errorf("Executed=%d Len=%d after run", k.Executed(), k.Len())
	}
}

func TestEventAtAccessor(t *testing.T) {
	k := NewKernel()
	e := k.At(3*time.Second, func() {})
	if e.At() != 3*time.Second {
		t.Errorf("At() = %v", e.At())
	}
}

// Property: RunUntil never executes events past the bound, in any order
// of scheduling.
func TestRunUntilBoundProperty(t *testing.T) {
	f := func(offsets []uint16, boundRaw uint16) bool {
		k := NewKernel()
		bound := time.Duration(boundRaw) * time.Microsecond
		late := 0
		for _, off := range offsets {
			d := time.Duration(off) * time.Microsecond
			k.At(d, func() {
				if k.Now() > bound {
					late++
				}
			})
		}
		if err := k.RunUntil(bound); err != nil {
			return false
		}
		return late == 0 && k.Now() == bound
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
