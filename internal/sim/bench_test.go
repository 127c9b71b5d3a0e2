package sim

import (
	"fmt"
	"testing"
)

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), fn)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), fn)
		e.Step()
	}
}

func BenchmarkEngineSelfScheduling(b *testing.B) {
	// The common simulation pattern: each event schedules its successor.
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	b.ResetTimer()
	e.RunAll(uint64(b.N) + 1)
}

func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	evs := make([]Event, 0, b.N)
	for i := 0; i < b.N; i++ {
		evs = append(evs, e.At(Time(i), fn))
	}
	b.ResetTimer()
	for _, ev := range evs {
		e.Cancel(ev)
	}
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1000)
	}
}

func BenchmarkRNGLogNormal(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(9.9, 0.85)
	}
}

// BenchmarkEngineDepth holds the queue at a fixed depth and times one
// operation pair per iteration: At+Step fires the earliest event and
// schedules its replacement; chain does the same from inside the fired
// callback, the way simulation events schedule their successors;
// At+Cancel cancels the oldest pending event and schedules a new one. Delays are pseudo-random in [1, 10000) ns, so
// new events land throughout the heap rather than always at its bottom.
func BenchmarkEngineDepth(b *testing.B) {
	ds := make([]Duration, 4096)
	x := uint64(1)
	for i := range ds {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ds[i] = Duration(1 + x%9999)
	}
	fn := func() {}
	for _, depth := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("%d/step", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				e.After(ds[i%len(ds)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(ds[i%len(ds)], fn)
				e.Step()
			}
		})
		b.Run(fmt.Sprintf("%d/chain", depth), func(b *testing.B) {
			e := NewEngine()
			i := 0
			var chain func()
			chain = func() {
				i++
				e.After(ds[i%len(ds)], chain)
			}
			for ; i < depth; i++ {
				e.After(ds[i%len(ds)], chain)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				e.Step()
			}
		})
		b.Run(fmt.Sprintf("%d/cancel", depth), func(b *testing.B) {
			e := NewEngine()
			ring := make([]Event, depth)
			for i := range ring {
				ring[i] = e.After(ds[i%len(ds)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % depth
				e.Cancel(ring[slot])
				ring[slot] = e.After(ds[i%len(ds)], fn)
			}
		})
	}
}

// BenchmarkStreamBacklog holds a FIFO backlog of firings at a fixed depth,
// the shape of a saturated control-plane server, and times one push at
// the tail plus one firing of the head per iteration. "stream" queues the
// backlog in a Stream; "at" schedules every firing as its own event with
// one pre-bound callback, which keeps the whole backlog in the heap.
func BenchmarkStreamBacklog(b *testing.B) {
	for _, depth := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("%d/stream", depth), func(b *testing.B) {
			e := NewEngine()
			s := NewStream(e, func(int) {})
			last := Time(0)
			for i := 0; i < depth; i++ {
				last += Time(1 + i%3)
				s.Push(last, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last += Time(1 + i%3)
				s.Push(last, i)
				e.Step()
			}
		})
		b.Run(fmt.Sprintf("%d/at", depth), func(b *testing.B) {
			e := NewEngine()
			fn := func() {}
			last := Time(0)
			for i := 0; i < depth; i++ {
				last += Time(1 + i%3)
				e.At(last, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last += Time(1 + i%3)
				e.At(last, fn)
				e.Step()
			}
		})
	}
}
