package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"vessel/internal/sim"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"vessel/internal/sim.(*Engine).Step":                                "vessel/internal/sim",
		"vessel/internal/sched/caladan.(*run).step.func1":                   "vessel/internal/sched/caladan",
		"vessel.(*ScheduledCluster).Run":                                    "vessel",
		"container/heap.up":                                                 "container/heap",
		"runtime.mallocgc":                                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                      "internal/runtime/maps",
		"slices.SortFunc[go.shape.[]vessel/internal/obs.Span,go.shape.int]": "slices",
		"main.probeEngine":                                                  "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"vessel/internal/sim.(*Engine).Step", "main.main"}, "sim"},
		// Standard-library frames count towards the repository caller.
		{[]string{"container/heap.down", "container/heap.Pop", "vessel/internal/sim.(*Engine).Step"}, "sim"},
		// Allocation and GC are runtime work, whoever called them.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "vessel/internal/workload.(*App).GenerateArrivals.func2"}, "runtime"},
		{[]string{"runtime.gcWriteBarrier2", "vessel/internal/sim.(*Engine).At"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		// Map access and copying belong to the caller's logic.
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2", "vessel/internal/vpkey.(*Table).Touch"}, "vpkey"},
		{[]string{"runtime.memmove", "main.digest", "main.main", "runtime.main"}, "other"},
		{[]string{"vessel/internal/sched/cfs.(*run).tick"}, "cfs"},
		{[]string{"vessel/internal/smas.(*SMAS).Load"}, "other"},
		{[]string{"main.probeEngine"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestSharesSumToOne folds a real CPU profile of engine work: every
// sampled nanosecond lands in exactly one layer.
func TestSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	ds := delays(1, 4096)
	noop := func() {}
	for time.Now().Before(deadline) {
		eng := sim.NewEngine()
		for i := 0; i < 20000; i++ {
			eng.After(ds[i%len(ds)], noop)
		}
		eng.RunAll(1 << 20)
	}
	pprof.StopCPUProfile()
	shares, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Skip("profile took no samples")
	}
	if len(shares) != len(layers) {
		t.Fatalf("got %d shares, want one per layer (%d)", len(shares), len(layers))
	}
	sum := 0.0
	for _, v := range shares {
		if v < 0 || v > 1 {
			t.Fatalf("share out of range: %v", shares)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["sim"] == 0 {
		t.Errorf("engine loop attributed nothing to sim: %v", shares)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage folded without error")
	}
}
