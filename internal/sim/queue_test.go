package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refSched is the specification of the kernel's event queue: pending
// events in a plain slice, the next one found by a linear scan for the
// least (at, seq). It shares no code with the kernel's heap.
type refSched struct {
	now      time.Duration
	seq      uint64
	executed uint64
	pending  []refEvent
	log      []firing
	nextID   int
	handles  []uint64 // cancellable handle → seq
	onFire   func(id int)
}

type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// firing is one executed event: which one, and the clock it saw.
type firing struct {
	id int
	at time.Duration
}

// schedule queues event id at t (clamped to now) and returns its seq.
func (r *refSched) schedule(t time.Duration, id int) uint64 {
	if t < r.now {
		t = r.now
	}
	s := r.seq
	r.seq++
	r.pending = append(r.pending, refEvent{at: t, seq: s, id: id})
	return s
}

func (r *refSched) find(seq uint64) int {
	for i, e := range r.pending {
		if e.seq == seq {
			return i
		}
	}
	return -1
}

func (r *refSched) cancel(h int) bool {
	i := r.find(r.handles[h])
	if i < 0 {
		return false
	}
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	return true
}

func (r *refSched) pendingHandle(h int) bool { return r.find(r.handles[h]) >= 0 }

// next returns the index of the event to fire next, or -1.
func (r *refSched) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.at < r.pending[best].at ||
			(e.at == r.pending[best].at && e.seq < r.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refSched) step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	r.now = e.at
	r.executed++
	r.log = append(r.log, firing{e.id, r.now})
	r.onFire(e.id)
	return true
}

func (r *refSched) runUntil(t time.Duration) {
	for {
		i := r.next()
		if i < 0 || r.pending[i].at > t {
			break
		}
		r.step()
	}
	if t > r.now {
		r.now = t
	}
}

// lockstep runs one seeded script of scheduling calls against a
// kernel and the reference in lockstep.
type lockstep struct {
	t       *testing.T
	k       *Kernel
	ref     *refSched
	kLog    []firing
	kNextID int
	events  []*Event // kernel handles, index-aligned with ref.handles
	callFn  func(any)
}

// unit is coarse enough, against the offsets drawn below, that many
// events share an instant.
const unit = time.Microsecond

// spawn is the child-scheduling rule both sides apply when event id
// fires, so callbacks exercise scheduling from inside Step too.
func spawn(id int) (kind int, d time.Duration, ok bool) {
	if id%3 != 0 {
		return 0, 0, false
	}
	return id % 4, time.Duration(id%5) * unit, true
}

func newLockstep(t *testing.T) *lockstep {
	d := &lockstep{t: t, k: NewKernel(), ref: &refSched{}}
	d.ref.onFire = func(id int) {
		kind, off, ok := spawn(id)
		if !ok {
			return
		}
		child := d.ref.nextID
		d.ref.nextID++
		s := d.ref.schedule(d.ref.now+off, child)
		if kind != 3 {
			d.ref.handles = append(d.ref.handles, s)
		}
	}
	d.callFn = func(x any) { d.kFire(x.(int)) }
	return d
}

func (d *lockstep) kFire(id int) {
	d.kLog = append(d.kLog, firing{id, d.k.Now()})
	kind, off, ok := spawn(id)
	if !ok {
		return
	}
	child := d.kNextID
	d.kNextID++
	switch kind {
	case 0:
		d.events = append(d.events, d.k.At(d.k.Now()+off, d.fireFn(child)))
	case 1, 2:
		d.events = append(d.events, d.k.After(off, d.fireFn(child)))
	case 3:
		d.k.AtCall(d.k.Now()+off, d.callFn, child)
	}
}

func (d *lockstep) fireFn(id int) func() { return func() { d.kFire(id) } }

// newID draws the next event id on both sides.
func (d *lockstep) newID() int {
	if d.kNextID != d.ref.nextID {
		d.t.Fatalf("id counters diverged: kernel %d, reference %d", d.kNextID, d.ref.nextID)
	}
	id := d.kNextID
	d.kNextID++
	d.ref.nextID++
	return id
}

// offset draws a time around now: a fifth of the draws lie in the past
// and are clamped, and the narrow range makes ties common.
func offset(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(12)-2) * unit
}

func (d *lockstep) op(rng *rand.Rand) string {
	k, ref := d.k, d.ref
	switch r := rng.Intn(100); {
	case r < 25:
		id, t := d.newID(), k.Now()+offset(rng)
		d.events = append(d.events, k.At(t, d.fireFn(id)))
		ref.handles = append(ref.handles, ref.schedule(t, id))
		return fmt.Sprintf("At(%v)", t)
	case r < 40:
		id, off := d.newID(), offset(rng)
		d.events = append(d.events, k.After(off, d.fireFn(id)))
		ref.handles = append(ref.handles, ref.schedule(ref.now+off, id))
		return fmt.Sprintf("After(%v)", off)
	case r < 55:
		id, t := d.newID(), k.Now()+offset(rng)
		k.AtCall(t, d.callFn, id)
		ref.schedule(t, id)
		return fmt.Sprintf("AtCall(%v)", t)
	case r < 75:
		if len(d.events) == 0 {
			return "Cancel(none)"
		}
		// Any handle ever issued: pending, fired, or already canceled.
		h := rng.Intn(len(d.events))
		got, want := d.events[h].Cancel(), ref.cancel(h)
		if got != want {
			d.t.Fatalf("Cancel(handle %d) = %v, reference %v", h, got, want)
		}
		return fmt.Sprintf("Cancel(%d)", h)
	case r < 92:
		got, want := k.Step(), ref.step()
		if got != want {
			d.t.Fatalf("Step = %v, reference %v", got, want)
		}
		return "Step"
	default:
		t := k.Now() + time.Duration(rng.Intn(8))*unit
		if err := k.RunUntil(t); err != nil {
			d.t.Fatalf("RunUntil: %v", err)
		}
		ref.runUntil(t)
		return fmt.Sprintf("RunUntil(%v)", t)
	}
}

// check compares every observable of the kernel with the reference.
func (d *lockstep) check(step int, what string) {
	k, ref := d.k, d.ref
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.t.Fatalf("op %d (%s): "+format, append([]any{step, what}, args...)...)
	}
	if k.Len() != len(ref.pending) {
		fail("Len = %d, reference %d", k.Len(), len(ref.pending))
	}
	if k.Executed() != ref.executed {
		fail("Executed = %d, reference %d", k.Executed(), ref.executed)
	}
	if k.Now() != ref.now {
		fail("Now = %v, reference %v", k.Now(), ref.now)
	}
	if len(d.kLog) != len(ref.log) {
		fail("fired %d events, reference %d", len(d.kLog), len(ref.log))
	}
	for i := range ref.log {
		if d.kLog[i] != ref.log[i] {
			fail("firing %d = %+v, reference %+v", i, d.kLog[i], ref.log[i])
		}
	}
	if len(d.events) != len(ref.handles) {
		fail("%d handles, reference %d", len(d.events), len(ref.handles))
	}
	for h, e := range d.events {
		if e.Pending() != ref.pendingHandle(h) {
			fail("handle %d Pending = %v, reference %v", h, e.Pending(), ref.pendingHandle(h))
		}
	}
}

// TestQueueMatchesReference drives seeded random interleavings of every
// scheduling call through the kernel and the reference queue and
// requires identical fire order, Len, Pending, Executed and clock after
// every call.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newLockstep(t)
			depth := 0
			for i := 0; i < 600; i++ {
				d.check(i, d.op(rng))
				depth = max(depth, d.k.Len())
			}
			if depth < 16 {
				t.Fatalf("queue peaked at %d events; the script must build a heap several levels deep", depth)
			}
			if err := d.k.Run(); err != nil {
				t.Fatal(err)
			}
			for d.ref.step() {
			}
			d.check(-1, "drain")
		})
	}
}

// Every event the kernel allocates or pools stays in the 64-byte size
// class.
func TestEventFitsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s > 64 {
		t.Errorf("Event is %d bytes, want at most 64", s)
	}
}

// TestTimerResetMatchesCancelAfter runs seeded scripts on two kernels
// in lockstep. One re-arms a set of timers in place with Reset; the
// other cancels each timer's event and schedules a fresh one with
// After. Plain At, AfterCall and Cancel calls, Steps and RunUntils are
// interleaved, and fired timers re-arm themselves from inside their
// callback, as a TCP retransmission timer does. Fire order, clock,
// Len, Executed, the sequence counter and every timer's Pending must
// agree after every call.
func TestTimerResetMatchesCancelAfter(t *testing.T) {
	const timers = 5
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			re, ca := NewKernel(), NewKernel()
			var reLog, caLog []firing
			var reTimers, caTimers [timers]*Event
			var fires [2][timers]int
			// rearm is the self-re-arming rule both sides apply when
			// timer i fires for the n-th time.
			rearm := func(i, n int) (time.Duration, bool) {
				return time.Duration((i+n)%4) * unit, n%3 != 0
			}
			var caFire func(i int) func()
			caFire = func(i int) func() {
				return func() {
					caLog = append(caLog, firing{i, ca.Now()})
					fires[1][i]++
					if d, ok := rearm(i, fires[1][i]); ok {
						caTimers[i] = ca.After(d, caFire(i))
					}
				}
			}
			for i := range reTimers {
				reTimers[i] = re.Timer(func() {
					reLog = append(reLog, firing{i, re.Now()})
					fires[0][i]++
					if d, ok := rearm(i, fires[0][i]); ok {
						reTimers[i].Reset(d)
					}
				})
			}
			plain := func(k *Kernel, log *[]firing) func(any) {
				return func(x any) { *log = append(*log, firing{x.(int), k.Now()}) }
			}
			rePlain, caPlain := plain(re, &reLog), plain(ca, &caLog)
			var reEvents, caEvents []*Event
			id := timers
			for op := 0; op < 600; op++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 30:
					i, off := rng.Intn(timers), offset(rng)
					reTimers[i].Reset(off)
					caTimers[i].Cancel()
					caTimers[i] = ca.After(off, caFire(i))
					what = fmt.Sprintf("Reset(%d, %v)", i, off)
				case r < 40:
					i := rng.Intn(timers)
					if got, want := reTimers[i].Cancel(), caTimers[i].Cancel(); got != want {
						t.Fatalf("op %d: Cancel(timer %d) = %v, Cancel+After side %v", op, i, got, want)
					}
					what = fmt.Sprintf("Cancel(timer %d)", i)
				case r < 55:
					tm := re.Now() + offset(rng)
					reEvents = append(reEvents, re.At(tm, func(id int) func() { return func() { rePlain(id) } }(id)))
					caEvents = append(caEvents, ca.At(tm, func(id int) func() { return func() { caPlain(id) } }(id)))
					id++
					what = fmt.Sprintf("At(%v)", tm)
				case r < 65:
					off := offset(rng)
					re.AfterCall(off, rePlain, id)
					ca.AfterCall(off, caPlain, id)
					id++
					what = fmt.Sprintf("AfterCall(%v)", off)
				case r < 72:
					if len(reEvents) == 0 {
						continue
					}
					h := rng.Intn(len(reEvents))
					reEvents[h].Cancel()
					caEvents[h].Cancel()
					what = fmt.Sprintf("Cancel(event %d)", h)
				case r < 92:
					re.Step()
					ca.Step()
					what = "Step"
				default:
					tm := re.Now() + time.Duration(rng.Intn(8))*unit
					if err := re.RunUntil(tm); err != nil {
						t.Fatal(err)
					}
					if err := ca.RunUntil(tm); err != nil {
						t.Fatal(err)
					}
					what = fmt.Sprintf("RunUntil(%v)", tm)
				}
				if re.Now() != ca.Now() || re.Len() != ca.Len() || re.Executed() != ca.Executed() || re.seq != ca.seq {
					t.Fatalf("op %d (%s): Reset side now %v len %d executed %d seq %d; Cancel+After side now %v len %d executed %d seq %d",
						op, what, re.Now(), re.Len(), re.Executed(), re.seq, ca.Now(), ca.Len(), ca.Executed(), ca.seq)
				}
				if len(reLog) != len(caLog) {
					t.Fatalf("op %d (%s): Reset side fired %d events, Cancel+After side %d", op, what, len(reLog), len(caLog))
				}
				for i := range reLog {
					if reLog[i] != caLog[i] {
						t.Fatalf("op %d (%s): firing %d = %+v, Cancel+After side %+v", op, what, i, reLog[i], caLog[i])
					}
				}
				for i := range reTimers {
					if reTimers[i].Pending() != caTimers[i].Pending() {
						t.Fatalf("op %d (%s): timer %d Pending = %v, Cancel+After side %v", op, what, i, reTimers[i].Pending(), caTimers[i].Pending())
					}
				}
			}
			if fires[0] == [timers]int{} {
				t.Fatal("no timer fired; the script must exercise re-arming from a callback")
			}
		})
	}
}
