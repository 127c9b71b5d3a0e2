package sim

import (
	"slices"
	"testing"
)

// TestStreamBacklogHoldsOneHeapSlot: a 65,536-firing backlog sits behind
// one heap slot, while Pending and HighWaterPending count every firing.
func TestStreamBacklogHoldsOneHeapSlot(t *testing.T) {
	const n = 65536
	e := NewEngine()
	var got []int
	s := NewStream(e, func(v int) { got = append(got, v) })
	for i := 0; i < n; i++ {
		s.Push(Time(i/4), i)
	}
	if len(e.queue) != 1 || e.Pending() != n || e.HighWaterPending() != n {
		t.Fatalf("heap %d slots, Pending %d, HighWaterPending %d; want 1, %d, %d",
			len(e.queue), e.Pending(), e.HighWaterPending(), n, n)
	}
	e.RunAll(n)
	if len(got) != n || e.Pending() != 0 || len(e.queue) != 0 || e.Now() != Time((n-1)/4) {
		t.Fatalf("fired %d, Pending %d, heap %d, now %v", len(got), e.Pending(), len(e.queue), e.Now())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("firing %d carried %d", i, v)
		}
	}
}

// TestStreamKeepsAtOrder runs one schedule twice, once with every firing
// an At and once with the "s" firings pushed to a stream: both fire in
// the same order, ties included.
func TestStreamKeepsAtOrder(t *testing.T) {
	run := func(stream bool) []string {
		e := NewEngine()
		var log []string
		s := NewStream(e, func(name string) { log = append(log, name) })
		sched := func(at Time, name string) {
			if stream && name[0] == 's' {
				s.Push(at, name)
				return
			}
			e.At(at, func() { log = append(log, name) })
		}
		sched(5, "s1")
		sched(5, "a1")
		sched(5, "s2")
		sched(3, "a2")
		sched(5, "a3")
		sched(7, "s3")
		e.At(5, func() { sched(5, "a4"); sched(7, "s4"); sched(6, "a5") })
		e.RunAll(100)
		return log
	}
	at, st := run(false), run(true)
	if !slices.Equal(at, st) {
		t.Fatalf("At order %v, stream order %v", at, st)
	}
}

func TestStreamPushFireAllocatesNothing(t *testing.T) {
	e := NewEngine()
	s := NewStream(e, func(int) {})
	last := Time(0)
	push := func() {
		last++
		s.Push(last, 0)
	}
	for i := 0; i < 64; i++ {
		push()
	}
	for i := 0; i < 1000; i++ {
		push()
		e.Step()
	}
	if a := testing.AllocsPerRun(1000, func() { push(); e.Step() }); a != 0 {
		t.Fatalf("steady-state Push+Step allocates %v per pair", a)
	}
}

func TestStepFromCallbackPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		reenter func(*Engine)
	}{
		{"Step", func(e *Engine) { e.Step() }},
		{"Run", func(e *Engine) { e.Run(100) }},
		{"RunAll", func(e *Engine) { e.RunAll(100) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.At(1, func() { c.reenter(e) })
			e.At(2, func() {})
			defer func() {
				if recover() == nil {
					t.Fatalf("%s from a callback did not panic", c.name)
				}
			}()
			e.Step()
		})
	}
}

func TestStreamPushPanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	e := NewEngine()
	s := NewStream(e, func(int) {})
	e.At(10, func() {})
	e.RunAll(10)
	mustPanic("push into the past", func() { s.Push(5, 0) })
	s.Push(20, 0)
	mustPanic("push before the newest firing", func() { s.Push(19, 0) })
	if e.Pending() != 1 {
		t.Fatalf("Pending %d after rejected pushes, want 1", e.Pending())
	}
}
