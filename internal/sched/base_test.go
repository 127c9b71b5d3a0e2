package sched

import (
	"testing"

	"vessel/internal/sim"
	"vessel/internal/workload"
)

// closeOutRun opens a B occupancy on each of three cores at time 0 — core
// i held by app order[i] — and lets the run close them all out at its end.
func closeOutRun(t *testing.T, order [3]int) Result {
	t.Helper()
	apps := []*workload.App{
		workload.NewBApp("b0", 60, 0.5), // 30 GB/s
		workload.NewBApp("b1", 40, 0.5), // 20 GB/s
		workload.NewBApp("b2", 20, 0.5), // 10 GB/s
	}
	var b Base
	if err := b.Init(Config{Cores: 3, Duration: sim.Millisecond, Apps: apps}); err != nil {
		t.Fatal(err)
	}
	var cores [3]Core
	for i := range cores {
		b.AddCore(&cores[i])
	}
	b.Eng.At(0, func() {
		for i := range cores {
			cores[i].Owner = apps[order[i]]
			cores[i].StartB()
		}
	})
	return b.Run("closeout", Counters{})
}

// TestCloseOutIndependentOfCoreOrder: B cores still open at the end of
// the window are deflated by one inflation snapshot, so the ledgers do not
// depend on which core each app held, i.e. on the close-out order.
func TestCloseOutIndependentOfCoreOrder(t *testing.T) {
	fwd := closeOutRun(t, [3]int{0, 1, 2})
	rev := closeOutRun(t, [3]int{2, 1, 0})
	if got, want := string(rev.Canonical()), string(fwd.Canonical()); got != want {
		t.Fatalf("reverse core order changed the result:\n--- forward\n%s--- reverse\n%s", want, got)
	}
	// 60 GB/s of demand on the default 40 GB/s machine: every app's
	// useful time is its wall time deflated by 1.5.
	for _, a := range fwd.Apps {
		if a.BWallNs != sim.Millisecond {
			t.Errorf("%s: wall %v, want the whole window", a.Name, a.BWallNs)
		}
		if want := sim.Millisecond * 2 / 3; a.BUsefulNs != want {
			t.Errorf("%s: useful %v, want %v", a.Name, a.BUsefulNs, want)
		}
	}
}
