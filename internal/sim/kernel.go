// Package sim provides a deterministic discrete-event simulation kernel.
//
// All barbican experiments run in virtual time: events are executed in
// timestamp order by a single goroutine, so simulations are reproducible
// bit-for-bit regardless of host load. Ties are broken by scheduling
// order, which makes the execution order a pure function of the inputs.
package sim

import (
	"math/rand"
	"reflect"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so that callers may cancel it before it fires.
//
// The fields are ordered so an event fits the 64-byte size class.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// fnArg/arg carry AtCall-style callbacks. Events scheduled that way
	// are pooled: recycled after firing and never handed to callers.
	fnArg  func(any)
	arg    any
	kernel *Kernel
	index  int32 // heap index; -1 when not queued
	fired  bool
	pooled bool
}

// At reports the virtual time at which the event is (or was) scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// Cancel removes the event from the queue. Canceling an event that already
// fired or was already canceled is a no-op. Cancel reports whether the
// event was still pending.
func (e *Event) Cancel() bool {
	if e == nil || e.fired || e.index < 0 {
		return false
	}
	e.kernel.remove(e)
	e.fired = true
	return true
}

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && !e.fired && e.index >= 0 }

// Reset re-arms e to fire d after the current virtual time, taking it
// off the queue first if it is pending. It reuses the event rather than
// allocating one, and takes one sequence number, exactly as Cancel
// followed by After does, so the fire order is the same as theirs.
// Reset works on any event a caller holds, pending, fired or canceled.
func (e *Event) Reset(d time.Duration) {
	k := e.kernel
	if e.Pending() {
		k.remove(e)
	}
	e.at, e.seq, e.fired = max(k.now+d, k.now), k.seq, false
	k.seq++
	k.push(e)
}

// Kernel is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; construct kernels with NewKernel.
type Kernel struct {
	now   time.Duration
	seq   uint64
	queue []*Event // binary min-heap on (at, seq); see push/pop
	rng   *rand.Rand

	executed uint64

	// Observability (see internal/obs). Wall accounting costs one
	// time.Now pair per Run call, never per event.
	stepProf StepProfiler
	wallBusy time.Duration
	runStart time.Time
	running  bool

	// free is the pool of recycled AtCall events. Pooled events are
	// never returned to callers, so a recycled event cannot be the
	// target of a stale Cancel.
	free []*Event
}

// Option configures a Kernel.
type Option interface{ apply(*Kernel) }

type seedOption int64

func (s seedOption) apply(k *Kernel) { k.rng = rand.New(rand.NewSource(int64(s))) }

// WithSeed sets the seed of the kernel's deterministic random source.
// The default seed is 1.
func WithSeed(seed int64) Option { return seedOption(seed) }

// NewKernel returns a kernel whose clock starts at zero.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(1))}
	for _, o := range opts {
		o.apply(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from event callbacks (the simulation is single-threaded).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// StepProfiler observes sampled event executions for the wall-domain
// profiler (see internal/obs/profile). Take makes the per-event
// sampling decision — it is called for EVERY executed event so that
// counter-based sampling stays deterministic — and a true return is
// bracketed by BeginStep (with the handler's code pointer and the
// virtual clock) and EndStep around the callback. The kernel itself
// never reads the wall clock for profiling; time measurement is the
// profiler's business, which keeps this package deterministic.
type StepProfiler interface {
	Take() bool
	BeginStep(fn uintptr, at time.Duration)
	EndStep()
}

// SetStepProfiler attaches a step profiler (nil detaches). Detached
// cost is one nil check per event.
func (k *Kernel) SetStepProfiler(p StepProfiler) { k.stepProf = p }

// funcPC returns the code pointer of a func value, used to label
// event handlers by symbol without widening the scheduling API. Go
// func values are pointer-shaped, so the interface conversion here
// does not allocate.
func funcPC(fn any) uintptr { return reflect.ValueOf(fn).Pointer() }

// WallBusy returns the cumulative wall-clock time spent inside Run,
// RunUntil, and RunFor — the denominator of the virtual/wall speedup
// ratio. It is accurate mid-run (event callbacks observe a live value).
func (k *Kernel) WallBusy() time.Duration {
	if k.running {
		return k.wallBusy + time.Since(k.runStart) //barbican:allow walltime -- speedup denominator: wall time never feeds back into simulation state
	}
	return k.wallBusy
}

// beginRun/endRun bracket the Run variants for wall-clock accounting.
// Nested runs (an event callback driving the kernel again) are counted
// once, by the outermost frame.
func (k *Kernel) beginRun() bool {
	if k.running {
		return false
	}
	k.running = true
	k.runStart = time.Now() //barbican:allow walltime -- per-Run wall accounting pair; see endRun
	return true
}

func (k *Kernel) endRun(outermost bool) {
	if !outermost {
		return
	}
	k.wallBusy += time.Since(k.runStart) //barbican:allow walltime -- per-Run wall accounting pair; see beginRun
	k.running = false
}

// Len returns the number of pending events.
func (k *Kernel) Len() int { return len(k.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event fires "now", after already-queued
// events for the current instant).
func (k *Kernel) At(t time.Duration, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	e := &Event{at: t, seq: k.seq, fn: fn, kernel: k}
	k.seq++
	k.push(e)
	return e
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	return k.At(k.now+d, fn)
}

// Timer returns an unscheduled event that runs fn each time Reset arms
// it: one event for a timer that is re-armed over and over.
func (k *Kernel) Timer(fn func()) *Event {
	return &Event{fn: fn, kernel: k, index: -1, fired: true}
}

// AtCall schedules fn(arg) at absolute virtual time t on a pooled,
// uncancellable event. It is the allocation-free form of At for hot
// per-packet callbacks: at steady state the event comes from and
// returns to the kernel's free list, and because fn is a precomputed
// func(any) rather than a fresh closure, a call site allocates nothing.
func (k *Kernel) AtCall(t time.Duration, fn func(any), arg any) {
	if t < k.now {
		t = k.now
	}
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.fired = false
	} else {
		e = &Event{kernel: k, pooled: true}
	}
	e.at, e.seq = t, k.seq
	e.fnArg, e.arg = fn, arg
	k.seq++
	k.push(e)
}

// AfterCall schedules fn(arg) d after the current virtual time on a
// pooled event (see AtCall).
func (k *Kernel) AfterCall(d time.Duration, fn func(any), arg any) {
	k.AtCall(k.now+d, fn, arg)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.pop()
	ev.fired = true
	k.now = ev.at
	k.executed++
	prof := k.stepProf
	sampled := prof != nil && prof.Take()
	if ev.pooled {
		// Recycle before firing: the callback may schedule again and
		// reuse this very event, which is safe once it is off the heap
		// and its fields are captured.
		fn, arg := ev.fnArg, ev.arg
		ev.fnArg, ev.arg = nil, nil
		k.free = append(k.free, ev)
		if sampled {
			prof.BeginStep(funcPC(fn), k.now)
			fn(arg)
			prof.EndStep()
		} else {
			fn(arg)
		}
	} else if sampled {
		prof.BeginStep(funcPC(ev.fn), k.now)
		ev.fn()
		prof.EndStep()
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until the queue is empty. The Run variants never
// fail today; the error result keeps their call shape stable.
func (k *Kernel) Run() error {
	defer k.endRun(k.beginRun())
	for k.Step() {
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t.
func (k *Kernel) RunUntil(t time.Duration) error {
	defer k.endRun(k.beginRun())
	for len(k.queue) > 0 && k.queue[0].at <= t {
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
	return nil
}

// RunFor executes events for a span of d virtual time from the current clock.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now + d)
}

// The queue is a binary min-heap of events ordered by (at, seq). seq is
// unique, so the order is total and the fire order is a pure function of
// the scheduling calls, whatever the heap's internal layout. Sifts move a
// hole through the slice rather than swapping, so an event's index is
// written once per level it moves and only for events that do move.

// before reports whether e fires ahead of o.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds e to the queue.
func (k *Kernel) push(e *Event) {
	k.queue = append(k.queue, nil)
	k.siftUp(e, len(k.queue)-1)
}

// pop removes and returns the next event to fire. The queue must not be
// empty.
func (k *Kernel) pop() *Event {
	q := k.queue
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		k.siftDown(last, 0)
	}
	top.index = -1
	return top
}

// remove takes the queued event e out of the queue.
func (k *Kernel) remove(e *Event) {
	q := k.queue
	n := len(q) - 1
	i := int(e.index)
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i != n {
		if i > 0 && last.before(q[(i-1)/2]) {
			k.siftUp(last, i)
		} else {
			k.siftDown(last, i)
		}
	}
	e.index = -1
}

// siftUp places e at or above the hole at i, moving each ancestor that
// fires after e down one level.
func (k *Kernel) siftUp(e *Event, i int) {
	q := k.queue
	for i > 0 {
		p := (i - 1) / 2
		pe := q[p]
		if !e.before(pe) {
			break
		}
		q[i] = pe
		pe.index = int32(i)
		i = p
	}
	q[i] = e
	e.index = int32(i)
}

// siftDown places e at or below the hole at i, moving each earlier child
// up one level.
func (k *Kernel) siftDown(e *Event, i int) {
	q := k.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		ce := q[c]
		if !ce.before(e) {
			break
		}
		q[i] = ce
		ce.index = int32(i)
		i = c
	}
	q[i] = e
	e.index = int32(i)
}
