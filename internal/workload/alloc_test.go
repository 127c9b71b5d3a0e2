package workload

import (
	"testing"

	"vessel/internal/sim"
)

// TestQueueMatchesModel drives every queue operation against a plain
// slice model: the reuse of Queue's backing array must never change
// what the queue holds. Insertions and removals are equally likely, so the
// depth random-walks and the array both grows and slides.
func TestQueueMatchesModel(t *testing.T) {
	app := NewLApp("q", Memcached(), 0)
	var model []*Request
	rng := sim.NewRNG(5)
	for i := 0; i < 50000; i++ {
		switch rng.Uint64() % 6 {
		case 0:
			r := &Request{Service: sim.Duration(i)}
			app.Enqueue(r)
			model = append(model, r)
		case 1, 5:
			got := app.Dequeue()
			var want *Request
			if len(model) > 0 {
				want, model = model[0], model[1:]
			}
			if got != want {
				t.Fatalf("op %d: Dequeue = %v, want %v", i, got, want)
			}
		case 2:
			// Preemption: the head goes back to the front.
			if r := app.Dequeue(); r != nil {
				app.RequeueFront(r)
			}
		case 3:
			// Control-plane detour: the newest leaves and comes back.
			if r := app.StealNewest(); r != nil {
				app.Requeue(r)
			}
		case 4:
			r := &Request{Service: sim.Duration(i)}
			app.RequeueFront(r)
			model = append([]*Request{r}, model...)
		}
		if len(app.Queue) != len(model) {
			t.Fatalf("op %d: len(Queue) = %d, want %d", i, len(app.Queue), len(model))
		}
		for k := range model {
			if app.Queue[k] != model[k] {
				t.Fatalf("op %d: Queue[%d] differs from model", i, k)
			}
		}
	}
}

// TestQueueSteadyStateNoAlloc: a queue cycling at a steady depth reuses
// its backing array — enqueue/dequeue and preempt/requeue-front alike.
func TestQueueSteadyStateNoAlloc(t *testing.T) {
	app := NewLApp("q", Memcached(), 0)
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{}
	}
	for _, r := range reqs[:8] {
		app.Enqueue(r)
	}
	i := 0
	cycle := func() {
		app.Enqueue(reqs[i%len(reqs)])
		app.Dequeue()
		i++
	}
	if allocs := testing.AllocsPerRun(10000, cycle); allocs != 0 {
		t.Fatalf("steady Enqueue/Dequeue allocated %.3f per cycle", allocs)
	}
	preempt := func() {
		r := app.Dequeue()
		app.RequeueFront(r)
		app.Enqueue(app.Dequeue())
	}
	if allocs := testing.AllocsPerRun(10000, preempt); allocs != 0 {
		t.Fatalf("steady Dequeue/RequeueFront allocated %.3f per cycle", allocs)
	}
	if len(app.Queue) != 8 {
		t.Fatalf("depth drifted to %d", len(app.Queue))
	}
}

// TestGenerateArrivalsAllocatesOnlyRequests: the arrival process
// allocates one Request per arrival and nothing else per event; its fixed
// set-up (engine, RNG forks, the one callback) amortises away.
func TestGenerateArrivalsAllocatesOnlyRequests(t *testing.T) {
	const until = sim.Time(5 * sim.Millisecond)
	for _, burst := range []bool{false, true} {
		app := NewLApp("mc", Memcached(), 4e6)
		if burst {
			app.Burst = &Burst{OnMean: 200 * sim.Microsecond, OffMean: 200 * sim.Microsecond, Factor: 2}
		}
		pass := func() {
			eng := sim.NewEngine()
			if err := app.GenerateArrivals(eng, sim.NewRNG(3), until, func(*Request) { app.Dequeue() }); err != nil {
				t.Fatal(err)
			}
			eng.Run(until)
		}
		allocs := testing.AllocsPerRun(2, pass)
		arrivals := float64(app.Offered) / 3 // AllocsPerRun adds a warm-up pass
		if arrivals < 10000 {
			t.Fatalf("burst=%v: only %.0f arrivals per pass", burst, arrivals)
		}
		if per := allocs / arrivals; per > 1.01 {
			t.Fatalf("burst=%v: %.4f allocations per arrival, want 1 (the Request)", burst, per)
		}
	}
}
