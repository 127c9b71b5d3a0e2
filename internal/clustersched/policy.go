package clustersched

// The policy layer: ghOSt-style pluggable cluster policies. A policy
// sees a read-only ledger view and proposes a transaction; it never
// touches the ledger itself, so a buggy policy can at worst propose
// invalid moves (refused per-move at commit) or crash (recovered by the
// Failsafe wrapper). Policies are a few hundred lines by design and
// hot-swappable mid-run via Sched.SetPolicy.

import (
	"fmt"
	"sort"

	"vessel/internal/failsafe"
	"vessel/internal/sim"
)

// DomainView is one domain's slice of the ledger view.
type DomainView struct {
	ID int
	// Granted is the domain's current core count; Want its outstanding
	// RequestCores balance.
	Granted int
	Want    int
	// QueueLen is the domain's total runqueue backlog (threads waiting
	// for a core) as of the last signal refresh.
	QueueLen int
	// ViolationFrac is the domain's journey-layer SLO violation fraction
	// (0 when no tracer feeds it).
	ViolationFrac float64
	// Share is the domain's fair-share weight.
	Share float64
}

// View is the read-only snapshot a policy decides against.
type View struct {
	Now          sim.Time
	Cores        int
	Fenced       int
	MinPerDomain int
	MaxPerDomain int
	// FreeCores lists unowned, unfenced cores ascending; Owned lists each
	// domain's cores ascending.
	FreeCores []int
	Owned     [][]int
	Domains   []DomainView
}

// Policy is the pluggable cluster-scheduling interface: one decision in,
// one transaction out.
type Policy interface {
	Name() string
	Decide(View) Txn
}

// NewFailsafe wraps primary (nil selects Static) with the Static fallback
// and the given per-decision cycle budget (0 disables the budget check).
func NewFailsafe(primary Policy, budgetCycles int64) *failsafe.Failsafe[View, Txn] {
	return failsafe.New[View, Txn](primary, Static{}, budgetCycles)
}

// decisionCost models what a decision costs the control plane: a fixed
// base plus a per-move charge, measured against the failsafe budget.
func decisionCost(moves int) int64 { return 2_000 + 500*int64(moves) }

// Static is the failsafe fallback: the minimal obviously-correct policy.
// It grants free cores round-robin to domains with outstanding requests,
// in domain order, and never revokes — yields are the only way cores
// come back. No state, no arithmetic that can divide by zero, nothing to
// go wrong.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy.
func (Static) Decide(v View) Txn {
	var txn Txn
	want := make([]int, len(v.Domains))
	for i, d := range v.Domains {
		want[i] = d.Want
	}
	next := 0
	for _, core := range v.FreeCores {
		granted := false
		for off := 0; off < len(want); off++ {
			d := (next + off) % len(want)
			if want[d] > 0 {
				txn.Moves = append(txn.Moves, Move{Kind: Grant, Domain: d, Core: core})
				want[d]--
				next = d + 1
				granted = true
				break
			}
		}
		if !granted {
			break // nobody wants more cores
		}
	}
	txn.CostCycles = decisionCost(len(txn.Moves))
	return txn
}

// FairShare drives every domain toward its weighted fair share of the
// usable cores, bounded by demand: a domain's target is
// min(demand, weighted share), where demand = granted + want, so an idle
// domain never hoards cores it has no use for. Over-target domains are
// revoked down (highest cores first), under-target domains granted up
// (lowest free cores first) — revokes precede grants in the transaction
// so freed cores are grantable in the same decision.
type FairShare struct{}

// Name implements Policy.
func (FairShare) Name() string { return "fairshare" }

// Decide implements Policy.
func (FairShare) Decide(v View) Txn {
	n := len(v.Domains)
	usable := len(v.FreeCores)
	demand := make([]int, n)
	var totalShare float64
	for i, d := range v.Domains {
		usable += d.Granted
		demand[i] = d.Granted + d.Want
		if demand[i] < v.MinPerDomain {
			demand[i] = v.MinPerDomain
		}
		if v.MaxPerDomain > 0 && demand[i] > v.MaxPerDomain {
			demand[i] = v.MaxPerDomain
		}
		totalShare += d.Share
	}
	// Weighted, demand-bounded targets; leftovers go round-robin in
	// domain order to domains still under demand.
	target := make([]int, n)
	assigned := 0
	for i, d := range v.Domains {
		t := int(d.Share / totalShare * float64(usable))
		if t < v.MinPerDomain {
			t = v.MinPerDomain
		}
		if t > demand[i] {
			t = demand[i]
		}
		target[i] = t
		assigned += t
	}
	for assigned > usable {
		// Over-assignment (min floors exceeded capacity): trim the
		// largest targets first, never below the floor.
		trimmed := false
		for i := 0; i < n && assigned > usable; i++ {
			if target[i] > v.MinPerDomain {
				target[i]--
				assigned--
				trimmed = true
			}
		}
		if !trimmed {
			break
		}
	}
	for assigned < usable {
		grew := false
		for i := 0; i < n && assigned < usable; i++ {
			if target[i] < demand[i] {
				target[i]++
				assigned++
				grew = true
			}
		}
		if !grew {
			break // all demand satisfied
		}
	}

	var txn Txn
	// Revokes first: over-target domains give back their highest cores.
	for i, d := range v.Domains {
		for k := d.Granted; k > target[i]; k-- {
			txn.Moves = append(txn.Moves, Move{Kind: Revoke, Domain: i, Core: v.Owned[i][k-1]})
		}
	}
	// Grants: under-target domains take the lowest available cores —
	// free list first, then cores freed by the revokes above.
	avail := append([]int(nil), v.FreeCores...)
	for _, m := range txn.Moves {
		avail = append(avail, m.Core)
	}
	sort.Ints(avail)
	next := 0
	for i, d := range v.Domains {
		for k := d.Granted; k < target[i] && next < len(avail); k++ {
			txn.Moves = append(txn.Moves, Move{Kind: Grant, Domain: i, Core: avail[next]})
			next++
		}
	}
	txn.CostCycles = decisionCost(len(txn.Moves))
	return txn
}

// MicroLatency is the µs-latency policy: it watches per-domain queue
// buildup (backlog per granted core) and the journey layer's SLO
// violation fraction, and steals cores for hot domains from cold ones —
// the queue-pressure signal is the same one ghOSt's µs-scale policies
// react to. Free cores are granted first; only then does it revoke from
// the coldest domains, at most StealMax per decision so reallocation
// stays incremental.
type MicroLatency struct {
	// HotQueuePerCore marks a domain hot when its backlog per granted
	// core exceeds this (default 4).
	HotQueuePerCore float64
	// MaxViolationFrac marks a domain hot when its SLO violation
	// fraction exceeds this while any backlog exists (default 0.1).
	MaxViolationFrac float64
	// ColdQueuePerCore marks a domain cold (stealable) when its backlog
	// per granted core is below this and it has no outstanding want
	// (default 1).
	ColdQueuePerCore float64
	// TargetQueuePerCore sizes how many cores a hot domain needs
	// (default 2).
	TargetQueuePerCore float64
	// StealMax caps revokes per decision (default max(1, cores/16)).
	StealMax int
}

// Name implements Policy.
func (MicroLatency) Name() string { return "uslatency" }

func (p MicroLatency) withDefaults(cores int) MicroLatency {
	if p.HotQueuePerCore <= 0 {
		p.HotQueuePerCore = 4
	}
	if p.MaxViolationFrac <= 0 {
		p.MaxViolationFrac = 0.1
	}
	if p.ColdQueuePerCore <= 0 {
		p.ColdQueuePerCore = 1
	}
	if p.TargetQueuePerCore <= 0 {
		p.TargetQueuePerCore = 2
	}
	if p.StealMax <= 0 {
		p.StealMax = cores / 16
		if p.StealMax < 1 {
			p.StealMax = 1
		}
	}
	return p
}

// Decide implements Policy.
func (p MicroLatency) Decide(v View) Txn {
	p = p.withDefaults(v.Cores)
	type hotDomain struct {
		id       int
		pressure float64
		need     int
	}
	var hot []hotDomain
	var cold []hotDomain
	for i, d := range v.Domains {
		pressure := float64(d.QueueLen) / float64(max(1, d.Granted))
		isHot := pressure > p.HotQueuePerCore ||
			(d.ViolationFrac > p.MaxViolationFrac && d.QueueLen > 0)
		if isHot {
			need := int(float64(d.QueueLen)/p.TargetQueuePerCore) - d.Granted
			if need < 1 {
				need = 1
			}
			if v.MaxPerDomain > 0 && d.Granted+need > v.MaxPerDomain {
				need = v.MaxPerDomain - d.Granted
			}
			if need > 0 {
				hot = append(hot, hotDomain{id: i, pressure: pressure, need: need})
			}
			continue
		}
		if pressure < p.ColdQueuePerCore && d.Want == 0 && d.Granted > v.MinPerDomain {
			cold = append(cold, hotDomain{id: i, pressure: pressure})
		}
	}
	if len(hot) == 0 {
		// Nothing hot: behave like Static so plain requests still land.
		txn := Static{}.Decide(v)
		txn.CostCycles = decisionCost(len(txn.Moves))
		return txn
	}
	// Hottest first; coldest first. Ties break on domain ID, so the
	// order is a pure function of the view.
	sort.SliceStable(hot, func(a, b int) bool {
		if hot[a].pressure != hot[b].pressure {
			return hot[a].pressure > hot[b].pressure
		}
		return hot[a].id < hot[b].id
	})
	sort.SliceStable(cold, func(a, b int) bool {
		if cold[a].pressure != cold[b].pressure {
			return cold[a].pressure < cold[b].pressure
		}
		return cold[a].id < cold[b].id
	})

	var txn Txn
	avail := append([]int(nil), v.FreeCores...)
	// Steal from the coldest: one core per cold domain per pass (their
	// highest core), up to StealMax, only while hot need remains unmet.
	needTotal := 0
	for _, h := range hot {
		needTotal += h.need
	}
	spare := make([]int, len(cold))
	for i, c := range cold {
		spare[i] = v.Domains[c.id].Granted - v.MinPerDomain
	}
	stolen := 0
	taken := make([]int, len(cold))
	for stolen < p.StealMax && needTotal > len(avail) {
		progress := false
		for i, c := range cold {
			if stolen >= p.StealMax || needTotal <= len(avail) {
				break
			}
			if taken[i] >= spare[i] {
				continue
			}
			owned := v.Owned[c.id]
			core := owned[len(owned)-1-taken[i]]
			txn.Moves = append(txn.Moves, Move{Kind: Revoke, Domain: c.id, Core: core})
			avail = append(avail, core)
			taken[i]++
			stolen++
			progress = true
		}
		if !progress {
			break
		}
	}
	sort.Ints(avail)
	// Grant hottest-first, round-robin so one huge domain cannot starve
	// the rest of the hot set.
	next := 0
	for next < len(avail) {
		progress := false
		for i := range hot {
			if next >= len(avail) {
				break
			}
			if hot[i].need <= 0 {
				continue
			}
			txn.Moves = append(txn.Moves, Move{Kind: Grant, Domain: hot[i].id, Core: avail[next]})
			next++
			hot[i].need--
			progress = true
		}
		if !progress {
			break
		}
	}
	txn.CostCycles = decisionCost(len(txn.Moves))
	return txn
}

// Names lists the registered policy names, in registry order.
func Names() []string { return []string{"fairshare", "uslatency", "static"} }

// NewNamed builds a registered policy by name.
func NewNamed(name string) (Policy, error) {
	switch name {
	case "fairshare":
		return FairShare{}, nil
	case "uslatency":
		return MicroLatency{}, nil
	case "static":
		return Static{}, nil
	default:
		return nil, fmt.Errorf("clustersched: unknown policy %q (have %v)", name, Names())
	}
}
