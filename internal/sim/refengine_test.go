package sim

import (
	"container/heap"
	"fmt"
)

// refEngine is the reference event engine the production Engine is
// checked against: the straightforward container/heap min-heap of event
// pointers, with the same free list, generations and handle semantics.
// FuzzEngineVsReference drives both with the same operations and requires
// identical observable behaviour.
type refEngine struct {
	now       Time
	seq       uint64
	queue     refHeap
	stopped   bool
	fired     uint64
	free      []*refEvent
	hwPending int
}

type refEvent struct {
	at     Time
	seq    uint64
	gen    uint32
	index  int // heap index; -1 once fired or cancelled
	fn     func()
	cancel bool
	stream bool // a stream firing: never recycled
}

// refHandle mirrors Event for the reference engine.
type refHandle struct {
	e   *refEvent
	gen uint32
}

func (h refHandle) At() Time {
	if h.e == nil || h.e.gen != h.gen {
		return 0
	}
	return h.e.at
}

func (h refHandle) Cancelled() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.cancel
}

func (h refHandle) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.cancel && h.e.index >= 0
}

func (e *refEngine) Now() Time             { return e.now }
func (e *refEngine) Fired() uint64         { return e.fired }
func (e *refEngine) Pending() int          { return len(e.queue) }
func (e *refEngine) HighWaterPending() int { return e.hwPending }
func (e *refEngine) Stop()                 { e.stopped = true }

func (e *refEngine) At(t Time, fn func()) refHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
		ev.cancel = false
	} else {
		ev = &refEvent{}
	}
	e.schedule(ev, t, fn)
	return refHandle{e: ev, gen: ev.gen}
}

// Push models a Stream push: an At on an event of its own that is never
// recycled, since a stream firing has no handle and takes no storage a
// handle could observe.
func (e *refEngine) Push(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: stream push at %v before now %v", t, e.now))
	}
	e.schedule(&refEvent{stream: true}, t, fn)
}

func (e *refEngine) schedule(ev *refEvent, t Time, fn func()) {
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	heap.Push(&e.queue, ev)
	if len(e.queue) > e.hwPending {
		e.hwPending = len(e.queue)
	}
}

func (e *refEngine) After(d Duration, fn func()) refHandle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

func (e *refEngine) Cancel(h refHandle) {
	ev := h.e
	if ev == nil || ev.gen != h.gen {
		return
	}
	if ev.cancel || ev.index < 0 {
		ev.cancel = true
		return
	}
	ev.cancel = true
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *refEngine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	ev.index = -1
	e.now = ev.at
	e.fired++
	fn := ev.fn
	fn()
	if !ev.stream {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	return true
}

func (e *refEngine) Run(until Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
}

// refHeap is a min-heap on (at, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
