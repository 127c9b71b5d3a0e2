package sim

import "fmt"

// Stream is a FIFO of firings of one callback, each carrying a value, at
// non-decreasing times. Only the oldest firing sits in the engine's heap;
// the rest wait in the stream, so a deep FIFO backlog — a saturated
// server's queue — keeps the heap one slot deep for it.
//
// Push takes the seq At would have taken at the same call, so every
// firing keeps the (at, seq) key it would have had as its own event and
// the engine's global firing order does not change. Pending and
// HighWaterPending count each queued firing. Firings cannot be cancelled.
type Stream[T any] struct {
	eng *Engine
	id  int32 // the stream's permanent event
	fn  func(T)
	// ring holds the n queued firings, oldest at head. Its length is zero
	// or a power of two, so it grows to at most twice the peak backlog.
	ring    []streamItem[T]
	head, n int
}

type streamItem[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewStream returns an empty stream on eng whose firings each call fn
// with the value pushed.
func NewStream[T any](eng *Engine, fn func(T)) *Stream[T] {
	s := &Stream[T]{eng: eng, fn: fn}
	ev := eng.newEvent()
	ev.stream = true
	ev.fn = s.fire
	s.id = ev.id
	return s
}

// Push schedules a firing of the stream's callback with v at time t. A t
// before Now, or before the stream's newest queued firing, panics.
func (s *Stream[T]) Push(t Time, v T) {
	e := s.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: stream push at %v before now %v", t, e.now))
	}
	if s.n > 0 {
		if last := s.ring[(s.head+s.n-1)&(len(s.ring)-1)].at; t < last {
			panic(fmt.Sprintf("sim: stream push at %v before its newest firing at %v", t, last))
		}
	}
	if s.n == len(s.ring) {
		s.grow()
	}
	seq := e.reserve()
	s.ring[(s.head+s.n)&(len(s.ring)-1)] = streamItem[T]{at: t, seq: seq, v: v}
	s.n++
	if s.n == 1 {
		e.push(entry{at: t, seq: seq, id: s.id})
	}
}

// grow doubles the ring, unwrapping the queued firings to its start.
func (s *Stream[T]) grow() {
	ring := make([]streamItem[T], max(16, 2*len(s.ring)))
	k := copy(ring, s.ring[s.head:])
	copy(ring[k:], s.ring[:s.head])
	s.ring, s.head = ring, 0
}

// fire is the stream event's callback: it pops the oldest firing, puts
// the next one's key in the heap, and runs fn.
func (s *Stream[T]) fire() {
	it := s.ring[s.head]
	s.ring[s.head] = streamItem[T]{}
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.n--
	if s.n > 0 {
		next := &s.ring[s.head]
		s.eng.push(entry{at: next.at, seq: next.seq, id: s.id})
	}
	s.fn(it.v)
}
