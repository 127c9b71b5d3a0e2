package sim

import (
	"fmt"
	"testing"
)

// fuzzHandle is what both engines' handles answer.
type fuzzHandle interface {
	At() Time
	Pending() bool
	Cancelled() bool
}

// fuzzEngine is the operation set FuzzEngineVsReference drives on both
// engines. Streams are numbered in the order they are opened.
type fuzzEngine interface {
	now() Time
	at(t Time, fn func()) fuzzHandle
	after(d Duration, fn func()) fuzzHandle
	cancel(h fuzzHandle)
	step() bool
	run(until Time)
	stop()
	openStream(fn func(int))
	push(stream int, t Time, v int)
	state() string
}

type prodEngine struct {
	*Engine
	streams []*Stream[int]
}

func (e *prodEngine) now() Time                              { return e.Now() }
func (e *prodEngine) at(t Time, fn func()) fuzzHandle        { return e.At(t, fn) }
func (e *prodEngine) after(d Duration, fn func()) fuzzHandle { return e.After(d, fn) }
func (e *prodEngine) cancel(h fuzzHandle)                    { e.Cancel(h.(Event)) }
func (e *prodEngine) step() bool                             { return e.Step() }
func (e *prodEngine) run(until Time)                         { e.Run(until) }
func (e *prodEngine) stop()                                  { e.Stop() }
func (e *prodEngine) openStream(fn func(int)) {
	e.streams = append(e.streams, NewStream(e.Engine, fn))
}
func (e *prodEngine) push(stream int, t Time, v int) { e.streams[stream].Push(t, v) }
func (e *prodEngine) state() string {
	return fmt.Sprintf("now=%v pending=%d fired=%d hw=%d", e.Now(), e.Pending(), e.Fired(), e.HighWaterPending())
}

// refAdapter keeps each stream as its callback; a push is refEngine.Push,
// an At of that callback on an event of its own.
type refAdapter struct {
	*refEngine
	streams []func(int)
}

func (e *refAdapter) now() Time                              { return e.Now() }
func (e *refAdapter) at(t Time, fn func()) fuzzHandle        { return e.At(t, fn) }
func (e *refAdapter) after(d Duration, fn func()) fuzzHandle { return e.After(d, fn) }
func (e *refAdapter) cancel(h fuzzHandle)                    { e.Cancel(h.(refHandle)) }
func (e *refAdapter) step() bool                             { return e.Step() }
func (e *refAdapter) run(until Time)                         { e.Run(until) }
func (e *refAdapter) stop()                                  { e.Stop() }
func (e *refAdapter) openStream(fn func(int))                { e.streams = append(e.streams, fn) }
func (e *refAdapter) push(stream int, t Time, v int) {
	fn := e.streams[stream]
	e.Push(t, func() { fn(v) })
}
func (e *refAdapter) state() string {
	return fmt.Sprintf("now=%v pending=%d fired=%d hw=%d", e.Now(), e.Pending(), e.Fired(), e.HighWaterPending())
}

// fuzzDriver applies one decoded operation stream to one engine. Every
// handle ever returned is kept, so stale handles are compared too.
type fuzzDriver struct {
	eng     fuzzEngine
	handles []fuzzHandle
	log     []int  // event ids in firing order; stream firing v logs -1-v
	last    []Time // per stream, the time of its newest push
	pushes  int    // stream firings pushed so far
}

// callback returns event id's body. Its side effects depend only on id
// and the driver's own state, so both drivers act identically: some
// events cancel another handle (possibly their own, mid-fire), some
// schedule a follow-up, and a few stop the run.
func (d *fuzzDriver) callback(id int) func() {
	return func() {
		d.log = append(d.log, id)
		switch id % 6 {
		case 1:
			d.eng.cancel(d.handles[(id*7)%len(d.handles)])
		case 2:
			d.add(d.eng.after(Duration(id%5), d.callback(len(d.handles))))
		case 3:
			if n := len(d.last); n > 0 {
				d.pushTo(id%n, Time(id%4))
			}
		case 4:
			if id%12 == 4 {
				d.eng.stop()
			}
		}
	}
}

// streamCallback returns stream s's body, which acts on firing v the way
// callback acts on an event id: some firings push to their own stream,
// some to the next one, some schedule a plain event, and a few stop.
func (d *fuzzDriver) streamCallback(s int) func(int) {
	return func(v int) {
		d.log = append(d.log, -1-v)
		switch v % 4 {
		case 1:
			d.pushTo(s, Time(v%3))
		case 2:
			d.add(d.eng.after(Duration(v%5), d.callback(len(d.handles))))
		case 3:
			if v%16 == 15 {
				d.eng.stop()
			} else {
				d.pushTo((s+1)%len(d.last), Time(v%2))
			}
		}
	}
}

func (d *fuzzDriver) add(h fuzzHandle) { d.handles = append(d.handles, h) }

// openStream opens the next stream.
func (d *fuzzDriver) openStream() {
	d.eng.openStream(d.streamCallback(len(d.last)))
	d.last = append(d.last, 0)
}

// pushTo pushes the next stream firing into stream s, delta after the
// later of now and the stream's newest push, so pushes never go back in
// time or out of order.
func (d *fuzzDriver) pushTo(s int, delta Time) {
	t := max(d.eng.now(), d.last[s]) + delta
	d.last[s] = t
	d.pushes++
	d.eng.push(s, t, d.pushes-1)
}

// apply performs operation op with argument arg, taken from now so no
// event is scheduled in the past.
func (d *fuzzDriver) apply(op, arg byte, now Time) {
	switch op % 8 {
	case 0:
		d.add(d.eng.at(now+Time(arg), d.callback(len(d.handles))))
	case 1:
		d.add(d.eng.after(Duration(int(arg%16)-2), d.callback(len(d.handles))))
	case 2:
		if len(d.handles) > 0 {
			d.eng.cancel(d.handles[int(arg)%len(d.handles)])
		}
	case 3:
		for i := 0; i <= int(arg%4); i++ {
			d.eng.step()
		}
	case 4:
		d.eng.run(now + Time(arg%32))
	case 5:
		// A burst of same-time events exercises seq tie-breaking.
		for i := 0; i < int(arg%8); i++ {
			d.add(d.eng.at(now+Time(arg%3), d.callback(len(d.handles))))
		}
	case 6:
		// Open one of up to three streams, then push once.
		if len(d.last) < 3 {
			d.openStream()
		}
		d.pushTo(int(arg)%len(d.last), Time(arg%4))
	case 7:
		// A run of pushes into one stream; a zero delta puts them all at
		// one instant.
		if n := len(d.last); n > 0 {
			for i := 0; i <= int(arg%4); i++ {
				d.pushTo(int(arg>>2)%n, Time(arg>>4)%3)
			}
		}
	}
}

// FuzzEngineVsReference decodes the input as (op, arg) byte pairs, applies
// each operation to the Engine and to refEngine, and after every one
// requires the same firing order, Now, Pending, Fired and
// HighWaterPending, and the same Pending/Cancelled/At on every handle
// either engine ever returned, stale ones included. Stream pushes are
// At calls on the reference, so the stream firings must interleave with
// plain events exactly as the reference's events do.
func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 1, 0, 3, 3})
	f.Add([]byte{5, 7, 5, 6, 2, 1, 2, 4, 3, 3, 4, 20})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 3, 2, 9, 4, 31, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 3, 0, 2, 0, 2, 1, 0, 9, 3, 3, 4, 1, 1, 15, 4, 31})
	f.Add([]byte{5, 255, 5, 254, 5, 253, 2, 7, 2, 11, 3, 3, 5, 250, 3, 3, 3, 3, 4, 31, 4, 31})
	// Same-time bursts, then cancels whose hole the heap's last slot must
	// climb out of (found by fuzzing a sift-up-less remove).
	f.Add([]byte{5, '7', 5, '&', 5, '7', 5, '2', 2, '1', 2, '0', 4, '0'})
	// Same-instant stream pushes interleaved with At bursts: ties must
	// fire in call order across both.
	f.Add([]byte{6, 0, 5, 3, 7, 3, 5, 3, 6, 0, 7, 3, 5, 11, 7, 67, 3, 3, 3, 3, 4, 31})
	// A stream drains, re-arms, drains again, while plain events and a
	// second stream push into it.
	f.Add([]byte{6, 2, 4, 31, 7, 1, 3, 0, 7, 17, 4, 31, 6, 5, 7, 2, 3, 3, 0, 3, 4, 31, 7, 5, 3, 1, 4, 31})
	// Longer pseudo-random streams build heaps several levels deep.
	for seed := uint64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		x := seed
		for i := range data {
			x = x*6364136223846793005 + 1442695040888963407
			data[i] = byte(x >> 56)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		prod := &prodEngine{Engine: NewEngine()}
		ref := &refAdapter{refEngine: &refEngine{}}
		a := &fuzzDriver{eng: prod}
		b := &fuzzDriver{eng: ref}
		checked := 0 // firing-log prefix already compared
		for i := 0; i+1 < len(data); i += 2 {
			if prod.Now() != ref.Now() {
				t.Fatalf("op %d: clocks diverged before apply", i/2)
			}
			now := prod.Now()
			a.apply(data[i], data[i+1], now)
			b.apply(data[i], data[i+1], now)
			if got, want := prod.state(), ref.state(); got != want {
				t.Fatalf("op %d (%d,%d): engine %s, reference %s", i/2, data[i], data[i+1], got, want)
			}
			if len(a.log) != len(b.log) {
				t.Fatalf("op %d: %d events fired vs %d", i/2, len(a.log), len(b.log))
			}
			for ; checked < len(a.log); checked++ {
				if a.log[checked] != b.log[checked] {
					t.Fatalf("op %d: firing order\n engine    %v\n reference %v", i/2, a.log, b.log)
				}
			}
			if len(a.handles) != len(b.handles) {
				t.Fatalf("op %d: %d handles vs %d", i/2, len(a.handles), len(b.handles))
			}
			for k := range a.handles {
				x, y := a.handles[k], b.handles[k]
				if x.Pending() != y.Pending() || x.Cancelled() != y.Cancelled() || x.At() != y.At() {
					t.Fatalf("op %d: handle %d: engine (pending=%v cancelled=%v at=%v), reference (pending=%v cancelled=%v at=%v)",
						i/2, k, x.Pending(), x.Cancelled(), x.At(), y.Pending(), y.Cancelled(), y.At())
				}
			}
		}
	})
}
