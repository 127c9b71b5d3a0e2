package main

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"vessel/internal/harness"
	"vessel/internal/sim"
)

// tinyPlan is one short VESSEL colocation run: real simulated output in a
// few milliseconds of host time.
func tinyPlan(seed uint64) harness.Plan {
	spec := coloSpec(seed, "VESSEL", mcApp(0.3), linpackApp())
	spec.DurationNs = int64(sim.Millisecond)
	spec.WarmupNs = int64(sim.Millisecond / 2)
	var p harness.Plan
	p.Add(spec)
	return p
}

func tinyUnits(t *testing.T) []unit {
	t.Helper()
	runs, err := prepareRuns(tinyPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	var sw stopwatch
	sw.start()
	units, err := sequential(runs)(nil, &sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || len(units[0].canon) == 0 || units[0].requests == 0 {
		t.Fatalf("tiny run produced %+v", units)
	}
	return units
}

func TestDigestRejectsOneTamperedByte(t *testing.T) {
	units := tinyUnits(t)
	golden := digest(units)
	for _, i := range []int{0, len(units[0].canon) / 2, len(units[0].canon) - 1} {
		tampered := []unit{units[0]}
		tampered[0].canon = bytes.Clone(units[0].canon)
		tampered[0].canon[i] ^= 1
		if digest(tampered) == golden {
			t.Fatalf("flipping byte %d left the digest unchanged", i)
		}
		var l ledger
		l.check(tampered, nil, golden)
		if l.attempted != 1 || l.failed != 1 {
			t.Fatalf("golden check booked %d/%d, want 1 failed of 1", l.failed, l.attempted)
		}
		l = ledger{}
		l.check(tampered, units, "")
		if l.failed != 1 {
			t.Fatalf("reference check booked %d failures, want 1", l.failed)
		}
	}
	var l ledger
	l.check(units, units, golden)
	if l.failed != 0 || l.attempted != 1 {
		t.Fatalf("untampered run booked %d/%d", l.failed, l.attempted)
	}
}

func TestOracleViolationFailsTheRun(t *testing.T) {
	units := tinyUnits(t)
	units[0].violations = []string{"planted"}
	var l ledger
	l.check(units, nil, "")
	if l.failed != 1 || len(l.reasons) == 0 {
		t.Fatalf("violation booked %d failures, reasons %v", l.failed, l.reasons)
	}
}

// TestInjectedFailureRaisesFailFrac runs a workload whose second pass
// returns one tampered canonical byte: fail_frac must rise above zero,
// and a pass that errors counts all its runs as failed.
func TestInjectedFailureRaisesFailFrac(t *testing.T) {
	passes := 0
	inject := false
	w := workload{name: "tiny", prepare: func(seed uint64, tr *tracer) (pass, error) {
		runs, err := prepareRuns(tinyPlan(seed))
		if err != nil {
			return nil, err
		}
		inner := sequential(runs)
		return func(tr *tracer, sw *stopwatch) ([]unit, error) {
			units, err := inner(tr, sw)
			passes++
			if inject && err == nil {
				units[0].canon = bytes.Clone(units[0].canon)
				units[0].canon[0] ^= 1
			}
			return units, err
		}, nil
	}}
	b := &bench{w: w, seed: 1, stdout: io.Discard}
	if _, err := b.reference(); err != nil {
		t.Fatal(err)
	}
	b.golden = digest(b.ref)
	if _, err := b.iterate(nil); err != nil {
		t.Fatal(err)
	}
	if b.l.failFrac() != 0 {
		t.Fatalf("clean passes booked fail_frac %v: %v", b.l.failFrac(), b.l.reasons)
	}
	inject = true
	if _, err := b.iterate(nil); err != nil {
		t.Fatal(err)
	}
	if passes != 3 || b.l.attempted != 3 || b.l.failed != 1 {
		t.Fatalf("after injection: %d passes, %d/%d failed", passes, b.l.failed, b.l.attempted)
	}
	if got := b.l.failFrac(); got != 1.0/3 {
		t.Fatalf("fail_frac = %v, want 1/3", got)
	}
	b.l.errored(len(b.ref), io.ErrUnexpectedEOF)
	if b.l.attempted != 4 || b.l.failed != 2 {
		t.Fatalf("errored pass booked %d/%d", b.l.failed, b.l.attempted)
	}
}

// TestGoldenDigests re-derives the committed digests of every workload on
// the default seed and the held-out seed.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := range g[w.name] {
			if _, err := strconv.ParseUint(seed, 10, 64); err != nil {
				t.Errorf("%s: golden seed %q is not a number", w.name, seed)
			}
		}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			want, ok := g.lookup(w.name, seed)
			if !ok {
				t.Errorf("%s: no golden for seed %d", w.name, seed)
				continue
			}
			b := &bench{w: w, seed: seed, golden: want, stdout: io.Discard}
			ref, err := b.reference()
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if b.l.failed != 0 {
				t.Errorf("%s seed %d: %d of %d runs failed: %v (digest %s)", w.name, seed, b.l.failed, b.l.attempted, b.l.reasons, digest(ref))
			}
		}
	}
}
