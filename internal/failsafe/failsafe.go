// Package failsafe is the single policy fault-isolation boundary of the
// ghOSt model: a wrapper that runs every decision of a scheduling policy
// under panic recovery and a per-decision cycle budget, and on the first
// violation replaces the policy — one-way — with a minimal fallback, so
// no policy bug can stop scheduling. A policy that panicked once has
// forfeited the benefit of the doubt.
//
// Two layers instantiate it: per-quantum preemption policies
// (vessel.PolicyView → vessel.PolicyDecision, round-robin fallback) and
// cluster core-allocation policies (clustersched.View → clustersched.Txn,
// static fallback).
package failsafe

import (
	"fmt"
	"sync"
)

// Decision is a policy's answer to one view. It carries the modeled cost
// of making it, in cycles: Cost reads it, Charge returns the decision
// with extra cycles added.
type Decision[D any] interface {
	Cost() int64
	Charge(cycles int64) D
}

// Policy decides one D per view V.
type Policy[V any, D Decision[D]] interface {
	Name() string
	Decide(V) D
}

// Failsafe wraps a primary policy with a fallback. It implements Policy
// itself and faultinject.PolicyTarget (so PolicyPanic faults have
// something to attack). All methods are safe for concurrent use.
type Failsafe[V any, D Decision[D]] struct {
	mu       sync.Mutex
	primary  Policy[V, D]
	fallback Policy[V, D]
	// budget is the per-decision cycle ceiling; 0 disables the check.
	budget  int64
	swapped bool
	reason  string
	// armPanic / armBurn are the fault injector's pending attacks on the
	// next decision.
	armPanic bool
	armBurn  int64
	// Panics counts recovered policy panics; Overruns counts decisions
	// that blew the cycle budget. At most one of them ever reaches 1 —
	// the swap happens on the first violation.
	Panics   uint64
	Overruns uint64
	// OnSwap, when non-nil, observes the takeover. It is invoked with the
	// lock held, exactly once; it must not call back into the Failsafe.
	OnSwap func(reason string)
}

// New wraps primary (nil selects the fallback itself) with fallback and
// the given per-decision cycle budget (0 disables the budget check).
func New[V any, D Decision[D]](primary, fallback Policy[V, D], budgetCycles int64) *Failsafe[V, D] {
	if primary == nil {
		primary = fallback
	}
	return &Failsafe[V, D]{primary: primary, fallback: fallback, budget: budgetCycles}
}

// Name implements Policy: failsafe(primary) until the swap,
// failsafe[fallback] after it.
func (f *Failsafe[V, D]) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapped {
		return fmt.Sprintf("failsafe[%s]", f.fallback.Name())
	}
	return fmt.Sprintf("failsafe(%s)", f.primary.Name())
}

// Decide implements Policy. A primary that panics or decides past the
// budget is swapped for the fallback, whose decision is returned; the
// cycles a budget-blowing decision burned are still charged (the damage
// was done once), the swap guarantees it never recurs.
func (f *Failsafe[V, D]) Decide(v V) D {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapped {
		return f.fallback.Decide(v)
	}
	dec, ok := f.tryPrimary(v)
	if !ok {
		f.Panics++
		f.swapLocked("panic")
		return f.fallback.Decide(v)
	}
	if f.armBurn > 0 {
		dec = dec.Charge(f.armBurn)
		f.armBurn = 0
	}
	if cost := dec.Cost(); f.budget > 0 && cost > f.budget {
		f.Overruns++
		f.swapLocked(fmt.Sprintf("budget cost=%d limit=%d", cost, f.budget))
		return f.fallback.Decide(v).Charge(cost)
	}
	return dec
}

// tryPrimary runs the primary's decision under panic recovery.
func (f *Failsafe[V, D]) tryPrimary(v V) (dec D, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if f.armPanic {
		f.armPanic = false
		panic("failsafe: injected policy panic")
	}
	return f.primary.Decide(v), true
}

// swapLocked performs the one-way takeover. Callers hold f.mu.
func (f *Failsafe[V, D]) swapLocked(reason string) {
	f.swapped = true
	f.reason = reason
	if f.OnSwap != nil {
		f.OnSwap(reason)
	}
}

// Swapped reports whether the fallback has taken over, and why.
func (f *Failsafe[V, D]) Swapped() (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.swapped, f.reason
}

// InjectPanic implements faultinject.PolicyTarget: the next decision
// panics inside the primary.
func (f *Failsafe[V, D]) InjectPanic() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armPanic = true
}

// InjectBurn implements faultinject.PolicyTarget: the next decision is
// charged the given extra cycles, blowing the budget if one is set.
func (f *Failsafe[V, D]) InjectBurn(cycles int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armBurn += cycles
}
