package vessel

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// TestDeepQueueAllocsPerRequest runs a small Figure 12 cell — 42 cores
// near saturation, so the control-plane backlog keeps thousands of
// events queued — and bounds heap allocations per simulated request.
// The Request itself is one; a func literal scheduled per event (arrival,
// control-plane delivery, completion) would add one more per request
// each and fail the bound.
func TestDeepQueueAllocsPerRequest(t *testing.T) {
	var offered uint64
	run := func() {
		mc := workload.NewLApp("memcached", workload.Memcached(), 0.95*sched.IdealLCapacity(42, workload.Memcached()))
		_, err := Simulator{}.Run(sched.Config{
			Seed:     1,
			Cores:    42,
			Duration: 2 * sim.Millisecond,
			Warmup:   500 * sim.Microsecond,
			Apps:     []*workload.App{mc, workload.Linpack()},
			Costs:    cpu.Default(),
		})
		if err != nil {
			t.Fatal(err)
		}
		offered = mc.Offered
	}
	allocs := testing.AllocsPerRun(1, run)
	if offered < 50000 {
		t.Fatalf("only %d requests offered; the run is too small to amortise set-up", offered)
	}
	if per := allocs / float64(offered); per > 1.5 {
		t.Fatalf("%.3f allocations per request (%.0f over %d requests), want <= 1.5", per, allocs, offered)
	}
}
