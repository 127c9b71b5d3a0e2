// Package sim provides a deterministic discrete-event simulation engine
// with a virtual nanosecond clock.
//
// Every component of the VESSEL reproduction — the simulated CPU cores, the
// simulated Linux kernel, the schedulers, and the workload generators — is
// driven by a single Engine. Events are executed in strictly non-decreasing
// time order; ties are broken by scheduling order, so a run is a pure
// function of its inputs and seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// String formats a duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// event is the engine-internal representation of a scheduled callback.
// Fired and cancelled events return to the engine's free list and are
// reused by later At/After calls, so the per-event allocation disappears
// from steady-state scheduling; gen counts reuses so stale handles can
// detect that their event is gone.
type event struct {
	at     Time
	fn     func()
	gen    uint32
	id     int32 // index into Engine.events and Engine.pos
	queued bool  // in the heap: neither fired nor cancelled
	cancel bool
	stream bool // a Stream's permanent event: never recycled
}

// Event is a by-value handle to a scheduled callback, returned by the
// scheduling methods so callers can cancel the event before it fires or
// query it. The zero Event is valid and refers to nothing. A handle stays
// answerable after its event fires or is cancelled — until the engine
// reuses the underlying storage for a new event, after which it reads as
// expired (not pending, not cancelled). Retain handles to cancel or to
// test pending-ness, not as long-term records.
type Event struct {
	e   *event
	gen uint32
}

// At reports when the event is (or was) scheduled to fire. Zero for the
// zero handle or once the handle has expired.
func (h Event) At() Time {
	if h.e == nil || h.e.gen != h.gen {
		return 0
	}
	return h.e.at
}

// Cancelled reports whether Cancel was called before the event fired.
func (h Event) Cancelled() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.cancel
}

// Pending reports whether the event is still scheduled to fire: it has
// neither fired nor been cancelled, and the handle has not expired.
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.cancel && h.e.queued
}

// Engine is a discrete-event scheduler over virtual time.
//
// Engine is not safe for concurrent use: the simulation is single-threaded
// by design so that results are deterministic.
type Engine struct {
	now     Time
	seq     uint64
	queue   []entry // 4-ary min-heap on (at, seq)
	stopped bool
	fired   uint64
	// events holds every event the engine has created, by id; pos[id] is
	// that event's heap slot while it is queued. Heap slots name events by
	// id rather than by pointer, so the heap holds no pointers: sifting
	// needs no GC write barriers and the collector never scans it.
	events []*event
	pos    []int32
	// spare is the unused tail of the block new events are carved from,
	// so creating events costs one allocation per block, not per event.
	spare []event
	// free holds the ids of fired/cancelled events awaiting reuse, so
	// steady-state scheduling allocates nothing. Reuse bumps the event's
	// gen, expiring any handles still pointing at it.
	free []int32
	// pending counts every scheduled firing: the heap's live entries plus
	// the firings queued in streams behind their heads.
	pending int
	// hwPending is the most firings ever pending at once, stream backlog
	// included. Only tests read it, through HighWaterPending.
	hwPending int
	// firing is set while a callback runs. hole is set while slot 0 still
	// holds the entry that fired: Step removes it after the callback
	// returns unless a push made during the callback took the slot over.
	firing, hole bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful in tests and
// for detecting runaway simulations).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled, counting each
// firing queued in a Stream as one.
func (e *Engine) Pending() int { return e.pending }

// At schedules fn to run at time t. Scheduling in the past (t < Now) panics:
// it is always a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.events[e.free[n-1]]
		e.free = e.free[:n-1]
		ev.gen++
		ev.cancel = false
	} else {
		ev = e.newEvent()
	}
	ev.at = t
	ev.fn = fn
	ev.queued = true
	e.push(entry{at: t, seq: e.reserve(), id: ev.id})
	return Event{e: ev, gen: ev.gen}
}

// reserve counts a newly scheduled firing as pending and returns the seq
// that orders it among firings at the same instant.
func (e *Engine) reserve() uint64 {
	seq := e.seq
	e.seq++
	e.pending++
	if e.pending > e.hwPending {
		e.hwPending = e.pending
	}
	return seq
}

// push inserts x into the heap. During a callback the first push takes
// over slot 0, which still holds the entry that fired, and sifts down
// once: an event that schedules its successor costs one sift rather than
// a remove plus an up.
func (e *Engine) push(x entry) {
	if e.hole {
		e.hole = false
		e.queue[0] = x
		e.down(0)
		return
	}
	e.queue = append(e.queue, x)
	e.up(len(e.queue) - 1)
}

// eventBlock is how many events newEvent allocates at once.
const eventBlock = 256

// newEvent creates an event with the next id.
func (e *Engine) newEvent() *event {
	if len(e.spare) == 0 {
		e.spare = make([]event, eventBlock)
	}
	ev := &e.spare[0]
	e.spare = e.spare[1:]
	ev.id = int32(len(e.events))
	e.events = append(e.events, ev)
	e.pos = append(e.pos, -1)
	return ev
}

// HighWaterPending returns the maximum number of simultaneously scheduled
// events observed over the engine's lifetime, stream backlog included.
func (e *Engine) HighWaterPending() int { return e.hwPending }

// After schedules fn to run d after the current time. A non-positive d means
// "as soon as possible, after already-queued events at the current instant".
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired, was already cancelled, or whose handle has expired is a
// no-op; the handle then reads as Cancelled until its storage is reused.
func (e *Engine) Cancel(h Event) {
	ev := h.e
	if ev == nil || ev.gen != h.gen {
		return
	}
	if ev.cancel || !ev.queued {
		ev.cancel = true
		return
	}
	ev.cancel = true
	ev.queued = false
	e.pending--
	e.remove(int(e.pos[ev.id]))
	ev.fn = nil
	e.free = append(e.free, ev.id)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. Calling Step (or Run/RunAll)
// from inside a callback panics.
func (e *Engine) Step() bool {
	e.notFiring()
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	root := e.queue[0]
	if root.at < e.now {
		panic("sim: event heap out of order")
	}
	ev := e.events[root.id]
	ev.queued = false
	e.now = root.at
	e.fired++
	e.pending--
	e.firing, e.hole = true, true
	ev.fn()
	e.firing = false
	if e.hole {
		e.hole = false
		e.remove(0)
	}
	// Recycle only after the callback returns: the callback (and anything
	// it calls) may still query handles to this event; once we are back,
	// the event is history and its storage can serve the next At.
	if !ev.stream {
		ev.fn = nil
		e.free = append(e.free, ev.id)
	}
	return true
}

// notFiring panics if a callback is running: slot 0 of the heap may hold
// the entry that fired, so the engine cannot fire another event yet.
func (e *Engine) notFiring() {
	if e.firing {
		panic("sim: Step or Run called from inside an event callback")
	}
}

// Run executes events until the queue is empty, Stop is called, or the next
// event would fire after `until`. The clock is left at the time of the last
// executed event (or advanced to `until` if it ran dry earlier).
func (e *Engine) Run(until Time) {
	e.notFiring()
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
}

// RunAll executes events until the queue is empty or Stop is called.
// It panics if more than maxEvents fire, to catch runaway simulations.
func (e *Engine) RunAll(maxEvents uint64) {
	e.stopped = false
	start := e.fired
	for !e.stopped && e.Step() {
		if e.fired-start > maxEvents {
			panic(fmt.Sprintf("sim: more than %d events fired; runaway simulation?", maxEvents))
		}
	}
}

// Stop halts Run/RunAll after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// entry is one slot of the event heap. The ordering key (at, seq) lives in
// the slot itself, so sifting compares without touching the event; seq is
// unique, which makes the order total and the firing sequence independent
// of the heap's shape.
type entry struct {
	at  Time
	seq uint64
	id  int32
}

func (a *entry) less(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// The queue is a 4-ary heap: children of slot i are 4i+1..4i+4. Against a
// binary heap it halves the depth, and a node's four children share a
// cache line or two.
const arity = 4

// up restores the heap property from slot i towards the root.
func (e *Engine) up(i int) {
	q := e.queue
	x := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !x.less(&q[p]) {
			break
		}
		q[i] = q[p]
		e.pos[q[i].id] = int32(i)
		i = p
	}
	q[i] = x
	e.pos[x.id] = int32(i)
}

// down restores the heap property from slot i towards the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	x := q[i]
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+arity, n)
		for j := c + 1; j < end; j++ {
			if q[j].less(&q[m]) {
				m = j
			}
		}
		if !q[m].less(&x) {
			break
		}
		q[i] = q[m]
		e.pos[q[i].id] = int32(i)
		i = m
	}
	q[i] = x
	e.pos[x.id] = int32(i)
}

// remove deletes slot i, filling the hole with the last slot and sifting
// it whichever way the heap property needs.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	if i == n {
		return
	}
	e.queue[i] = last
	if i > 0 && last.less(&e.queue[(i-1)/arity]) {
		e.up(i)
	} else {
		e.down(i)
	}
}
