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
// engines.
type fuzzEngine interface {
	at(t Time, fn func()) fuzzHandle
	after(d Duration, fn func()) fuzzHandle
	cancel(h fuzzHandle)
	step() bool
	run(until Time)
	stop()
	state() string
}

type prodEngine struct{ *Engine }

func (e prodEngine) at(t Time, fn func()) fuzzHandle        { return e.At(t, fn) }
func (e prodEngine) after(d Duration, fn func()) fuzzHandle { return e.After(d, fn) }
func (e prodEngine) cancel(h fuzzHandle)                    { e.Cancel(h.(Event)) }
func (e prodEngine) step() bool                             { return e.Step() }
func (e prodEngine) run(until Time)                         { e.Run(until) }
func (e prodEngine) stop()                                  { e.Stop() }
func (e prodEngine) state() string {
	return fmt.Sprintf("now=%v pending=%d fired=%d hw=%d", e.Now(), e.Pending(), e.Fired(), e.HighWaterPending())
}

type refAdapter struct{ *refEngine }

func (e refAdapter) at(t Time, fn func()) fuzzHandle        { return e.At(t, fn) }
func (e refAdapter) after(d Duration, fn func()) fuzzHandle { return e.After(d, fn) }
func (e refAdapter) cancel(h fuzzHandle)                    { e.Cancel(h.(refHandle)) }
func (e refAdapter) step() bool                             { return e.Step() }
func (e refAdapter) run(until Time)                         { e.Run(until) }
func (e refAdapter) stop()                                  { e.Stop() }
func (e refAdapter) state() string {
	return fmt.Sprintf("now=%v pending=%d fired=%d hw=%d", e.Now(), e.Pending(), e.Fired(), e.HighWaterPending())
}

// fuzzDriver applies one decoded operation stream to one engine. Every
// handle ever returned is kept, so stale handles are compared too.
type fuzzDriver struct {
	eng     fuzzEngine
	handles []fuzzHandle
	log     []int // event ids in firing order
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
		case 4:
			if id%12 == 4 {
				d.eng.stop()
			}
		}
	}
}

func (d *fuzzDriver) add(h fuzzHandle) { d.handles = append(d.handles, h) }

// apply performs operation op with argument arg, taken from now so no
// event is scheduled in the past.
func (d *fuzzDriver) apply(op, arg byte, now Time) {
	switch op % 6 {
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
	}
}

// FuzzEngineVsReference decodes the input as (op, arg) byte pairs, applies
// each operation to the Engine and to refEngine, and after every one
// requires the same firing order, Now, Pending, Fired and
// HighWaterPending, and the same Pending/Cancelled/At on every handle
// either engine ever returned, stale ones included.
func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 1, 0, 3, 3})
	f.Add([]byte{5, 7, 5, 6, 2, 1, 2, 4, 3, 3, 4, 20})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 3, 2, 9, 4, 31, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 3, 0, 2, 0, 2, 1, 0, 9, 3, 3, 4, 1, 1, 15, 4, 31})
	f.Add([]byte{5, 255, 5, 254, 5, 253, 2, 7, 2, 11, 3, 3, 5, 250, 3, 3, 3, 3, 4, 31, 4, 31})
	// Same-time bursts, then cancels whose hole the heap's last slot must
	// climb out of (found by fuzzing a sift-up-less remove).
	f.Add([]byte("A7A&A7A22120X0"))
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
		prod := prodEngine{NewEngine()}
		ref := refAdapter{&refEngine{}}
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
