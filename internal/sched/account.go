package sched

import (
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
)

// Activity classifies what a core is doing, for the cycle breakdown.
type Activity uint8

const (
	ActIdle Activity = iota
	ActApp
	ActRuntime
	ActKernel
	ActSwitch
)

// CatOf maps an Activity to its obs category. The two enums share ordering
// by construction — obs.CatIdle..obs.CatSwitch mirror ActIdle..ActSwitch —
// so the conversion is a cast, asserted here rather than assumed.
func CatOf(act Activity) obs.Category {
	return obs.Category(act)
}

// Compile-time alignment assertions: the array index must be the constant 0,
// so any drift between the enums breaks the build.
var (
	_ = [1]struct{}{}[uint8(obs.CatIdle)-uint8(ActIdle)]
	_ = [1]struct{}{}[uint8(obs.CatApp)-uint8(ActApp)]
	_ = [1]struct{}{}[uint8(obs.CatRuntime)-uint8(ActRuntime)]
	_ = [1]struct{}{}[uint8(obs.CatKernel)-uint8(ActKernel)]
	_ = [1]struct{}{}[uint8(obs.CatSwitch)-uint8(ActSwitch)]
)

// Accountant accrues per-activity core time clipped to the measurement
// window [From, To]. When Obs is set, every accrued span is also recorded
// as an observability span (unclipped, for the timeline) and charged to the
// cycle-attribution profiler (clipped, so the profile's activity buckets
// exactly partition the measured interval — the conservation oracle in
// internal/conformance depends on every breakdown accrual passing through
// AccrueCore).
type Accountant struct {
	From, To  sim.Time
	Breakdown CycleBreakdown
	Obs       *obs.Observer
	// Journey, when set, receives every switch accrual as a flight-
	// recorder event — the scheduler wakeup→run edges of the causal
	// chain, visible in black-box postmortems.
	Journey *journey.Tracer
}

// AccrueCore is Accrue plus timeline recording for the given core.
func (a *Accountant) AccrueCore(core int, act Activity, t0, t1 sim.Time, label string) {
	a.Accrue(act, t0, t1)
	if t1 <= t0 {
		return
	}
	if a.Obs != nil {
		cat := CatOf(act)
		a.Obs.Span(core, t0, t1, cat, label)
		a.Obs.Charge(core, label, cat, a.Clip(t0, t1))
	}
	if a.Journey != nil && act == ActSwitch {
		a.Journey.Event(t0, "sched.switch", label)
	}
}

// Accrue charges the span [t0, t1) to the given activity, clipped to the
// measurement window.
func (a *Accountant) Accrue(act Activity, t0, t1 sim.Time) {
	if t1 <= t0 {
		return
	}
	if t0 < a.From {
		t0 = a.From
	}
	if t1 > a.To {
		t1 = a.To
	}
	if t1 <= t0 {
		return
	}
	d := t1.Sub(t0)
	switch act {
	case ActIdle:
		a.Breakdown.IdleNs += d
	case ActApp:
		a.Breakdown.AppNs += d
	case ActRuntime:
		a.Breakdown.RuntimeNs += d
	case ActKernel:
		a.Breakdown.KernelNs += d
	case ActSwitch:
		a.Breakdown.SwitchNs += d
	}
}

// Clip returns the portion of [t0, t1) inside the measurement window.
func (a *Accountant) Clip(t0, t1 sim.Time) sim.Duration {
	if t0 < a.From {
		t0 = a.From
	}
	if t1 > a.To {
		t1 = a.To
	}
	if t1 <= t0 {
		return 0
	}
	return t1.Sub(t0)
}

// BW tracks aggregate memory-bandwidth demand from the apps currently
// running on cores and converts oversubscription into a service-time
// inflation factor (the simple linear contention model of DESIGN.md §3).
type BW struct {
	// CapacityGBs is the machine's memory bandwidth in GB/s (bytes/ns).
	CapacityGBs float64
	demand      float64
	// integral accumulates demand·time for average-consumption reporting.
	integral   float64
	lastChange sim.Time
}

// NewBW returns a tracker with the given capacity.
func NewBW(capacityGBs float64) *BW {
	return &BW{CapacityGBs: capacityGBs}
}

// advance integrates demand up to now.
func (b *BW) advance(now sim.Time) {
	if now > b.lastChange {
		b.integral += b.effective() * float64(now-b.lastChange)
		b.lastChange = now
	}
}

// effective returns delivered bandwidth: demand capped at capacity.
func (b *BW) effective() float64 {
	if b.CapacityGBs > 0 && b.demand > b.CapacityGBs {
		return b.CapacityGBs
	}
	return b.demand
}

// Add registers demand (GB/s) starting at now.
func (b *BW) Add(now sim.Time, gbs float64) {
	b.advance(now)
	b.demand += gbs
}

// Remove deregisters demand at now.
func (b *BW) Remove(now sim.Time, gbs float64) {
	b.advance(now)
	b.demand -= gbs
	if b.demand < 1e-9 {
		b.demand = 0
	}
}

// Demand returns the current aggregate demand in GB/s.
func (b *BW) Demand() float64 { return b.demand }

// Inflation returns the current service-time inflation factor ≥ 1.
func (b *BW) Inflation() float64 {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 1
	}
	return b.demand / b.CapacityGBs
}

// ResetAvg restarts average-consumption integration at the given time
// (typically the end of warmup).
func (b *BW) ResetAvg(at sim.Time) {
	b.advance(at)
	b.integral = 0
	b.lastChange = at
}

// AvgGBs reports average delivered bandwidth over [from, now]. Call
// ResetAvg(from) at the start of the measured interval first.
func (b *BW) AvgGBs(from, now sim.Time) float64 {
	b.advance(now)
	if now <= from {
		return 0
	}
	return b.integral / float64(now-from)
}

// stallPerOversubscription scales DRAM-queueing stalls: mean extra stall
// per request per unit of oversubscription.
const stallPerOversubscription = 2000 // ns

// StallNoise samples the DRAM-queueing stall a request suffers when the
// memory system is oversubscribed: beyond capacity, request latency does
// not just scale by the linear Inflation factor — queueing in the memory
// controller adds heavy-tailed stalls proportional to the oversubscription.
// This is the §6.3.4 motivation for regulating B-app bandwidth at all:
// unregulated membench wrecks the L-app's *tail*, not just its mean.
func (b *BW) StallNoise(rng *sim.RNG) sim.Duration {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 0
	}
	over := b.demand/b.CapacityGBs - 1
	return rng.Exp(sim.Duration(over * stallPerOversubscription))
}
