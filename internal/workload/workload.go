// Package workload implements the paper's workloads (§6.1):
//
//   - memcached with Facebook's USR distribution: reads and writes with a
//     1 µs average service time, Poisson arrivals;
//   - Silo under TPC-C: high service-time variability, 20 µs median and
//     280 µs at the 99.9th percentile;
//   - Linpack: a CPU-bound best-effort batch job whose throughput is
//     proportional to the CPU time it receives;
//   - membench: a memory-intensive best-effort app alternating memory and
//     compute phases (the AI-recommendation stand-in).
//
// Apps expose open-loop request generation over the simulation engine and
// latency/throughput accounting consumed by every scheduler simulator.
package workload

import (
	"fmt"
	"math"

	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/stats"
)

// Kind distinguishes latency-critical from best-effort applications.
type Kind uint8

const (
	// LatencyCritical apps serve request streams and are measured by
	// tail latency (L-apps).
	LatencyCritical Kind = iota
	// BestEffort apps consume whatever cycles are left (B-apps).
	BestEffort
)

func (k Kind) String() string {
	if k == LatencyCritical {
		return "L-app"
	}
	return "B-app"
}

// ServiceDist samples request service times.
type ServiceDist interface {
	Sample(r *sim.RNG) sim.Duration
	Mean() sim.Duration
}

// ExpDist is an exponential service-time distribution — the memcached-USR
// stand-in with a 1 µs mean.
type ExpDist struct{ M sim.Duration }

// Sample draws a service time.
func (d ExpDist) Sample(r *sim.RNG) sim.Duration { return r.Exp(d.M) }

// Mean returns the distribution mean.
func (d ExpDist) Mean() sim.Duration { return d.M }

// FixedDist is a deterministic service time.
type FixedDist struct{ D sim.Duration }

// Sample returns the fixed service time.
func (d FixedDist) Sample(r *sim.RNG) sim.Duration { return d.D }

// Mean returns the fixed service time.
func (d FixedDist) Mean() sim.Duration { return d.D }

// TPCCDist models Silo/TPC-C service times: log-normal with a 20 µs median
// and 280 µs at P999 (§6.1). Solving exp(µ)=20µs and exp(µ+3.09σ)=280µs
// gives σ = ln(14)/3.09.
type TPCCDist struct{}

var tpccMu = math.Log(20_000)
var tpccSigma = math.Log(14) / 3.0902 // z(0.999) = 3.0902

// Sample draws a TPC-C transaction service time.
func (TPCCDist) Sample(r *sim.RNG) sim.Duration {
	return r.LogNormal(tpccMu, tpccSigma)
}

// Mean returns the log-normal mean exp(µ+σ²/2).
func (TPCCDist) Mean() sim.Duration {
	return sim.Duration(math.Exp(tpccMu + tpccSigma*tpccSigma/2))
}

// Memcached returns the memcached-USR L-app service distribution.
func Memcached() ServiceDist { return ExpDist{M: 1 * sim.Microsecond} }

// Silo returns the Silo/TPC-C L-app service distribution.
func Silo() ServiceDist { return TPCCDist{} }

// Burst configures an ON/OFF modulated Poisson arrival process for the
// bursty-load experiments (Figure 10). Period lengths are exponential with
// the given means. The instantaneous rate is scaled by 2F/(1+F) during ON
// periods and 2/(1+F) during OFF periods, so with OnMean == OffMean the
// long-run average stays exactly the configured rate while ON periods run
// F times hotter than OFF ones.
type Burst struct {
	OnMean  sim.Duration
	OffMean sim.Duration
	Factor  float64
}

// multipliers returns the (on, off) rate scalers. A Factor below 1 (or
// non-finite: NaN/±Inf would poison every downstream gap computation) is
// treated as no modulation.
func (b *Burst) multipliers() (float64, float64) {
	f := b.Factor
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 1 {
		f = 1
	}
	return 2 * f / (1 + f), 2 / (1 + f)
}

// Request is one L-app request.
type Request struct {
	App     *App
	Arrive  sim.Time
	Service sim.Duration
	// Remaining tracks unserved work for schedulers that preempt
	// requests mid-service (§4.4 priority preemption, CFS timeslices).
	Remaining sim.Duration
	Start     sim.Time
	Done      sim.Time
	// J is the request's journey trace context (nil when journey
	// tracing is off; every journey method is nil-safe, so schedulers
	// propagate it without guarding).
	J *journey.Journey
}

// Sojourn returns the request's total latency.
func (r *Request) Sojourn() sim.Duration { return r.Done.Sub(r.Arrive) }

// App is one application instance in an experiment.
type App struct {
	Name string
	Kind Kind
	// Index is the app's position in its run's app list, set when the
	// run starts, so schedulers keep per-app ledgers in slices.
	Index int

	// L-app parameters.
	Dist  ServiceDist
	RateK float64 // offered load, requests per second
	Burst *Burst
	// Priority orders latency-critical apps for §4.4 preemption: a
	// request of a higher-priority app may preempt a core serving a
	// lower-priority one. Zero is the default; B-apps are always below
	// every L-app.
	Priority int

	// B-app parameters: bandwidth demand while running (bytes/ns, i.e.
	// GB/s) and the fraction of runtime spent in memory phases.
	// Linpack: BWDemand≈0.5, MemFrac≈0.1; membench: BWDemand≈12,
	// MemFrac≈0.7.
	BWDemand float64
	MemFrac  float64

	// Queue is the pending-request FIFO the scheduler serves, oldest
	// first. Use the methods to change it; reading len(Queue) and
	// Queue[0] directly is fine.
	Queue []*Request
	// qbuf is Queue's whole backing array from slot 0, so push can
	// reclaim the slots Dequeue leaves behind.
	qbuf []*Request

	// Accounting.
	Offered    uint64
	Completed  uint64
	Lat        *stats.Histogram
	BUsefulNs  sim.Duration // B-app CPU time actually delivered
	FirstStart sim.Time
}

// NewLApp builds a latency-critical app.
func NewLApp(name string, dist ServiceDist, ratePerSec float64) *App {
	return &App{
		Name:  name,
		Kind:  LatencyCritical,
		Dist:  dist,
		RateK: ratePerSec,
		Lat:   stats.NewHistogram(),
	}
}

// NewBApp builds a best-effort app. bwDemand is GB/s consumed per running
// core during memory phases; memFrac is the fraction of time in them.
func NewBApp(name string, bwDemand, memFrac float64) *App {
	return &App{
		Name:     name,
		Kind:     BestEffort,
		BWDemand: bwDemand,
		MemFrac:  memFrac,
		Lat:      stats.NewHistogram(),
	}
}

// Linpack returns the paper's CPU-bound B-app.
func Linpack() *App { return NewBApp("linpack", 0.5, 0.05) }

// Membench returns the paper's memory-intensive B-app.
func Membench() *App { return NewBApp("membench", 12.0, 0.7) }

// AvgBW returns the app's average bandwidth demand per running core.
func (a *App) AvgBW() float64 { return a.BWDemand * a.MemFrac }

// Enqueue appends an arrived request.
func (a *App) Enqueue(r *Request) {
	a.Offered++
	a.push(r)
}

// push appends r to Queue. Dequeue advances Queue through its backing
// array, so once Queue reaches the array's end the slots before it are
// dead; when more than half the array is dead, push slides the live
// requests down to its start instead of letting append regrow it. A
// steady enqueue/dequeue cycle therefore reuses one array.
func (a *App) push(r *Request) {
	if n := len(a.Queue); n == cap(a.Queue) {
		if 2*n >= cap(a.qbuf) {
			a.Queue = append(a.Queue, r)
			a.qbuf = a.Queue[:0]
			return
		}
		copy(a.qbuf[:n], a.Queue)
		clear(a.qbuf[n:cap(a.qbuf)])
		a.Queue = a.qbuf[:n]
	}
	a.Queue = append(a.Queue, r)
}

// StealNewest removes and returns the most recently enqueued request —
// used by kernel-path models that hold a just-arrived request in a per-core
// receive ring until softirq processing releases it.
func (a *App) StealNewest() *Request {
	if len(a.Queue) == 0 {
		return nil
	}
	n := len(a.Queue) - 1
	r := a.Queue[n]
	a.Queue[n] = nil
	a.Queue = a.Queue[:n]
	return r
}

// Requeue re-inserts a stolen request without recounting it as offered.
func (a *App) Requeue(r *Request) {
	a.push(r)
}

// RequeueFront re-inserts a preempted in-flight request at the head of the
// queue so it resumes before younger requests. It reuses the slot the
// last Dequeue freed when there is one.
func (a *App) RequeueFront(r *Request) {
	// Queue starts off slots into qbuf; the address check guards against
	// a Queue assigned directly rather than through these methods.
	if off := cap(a.qbuf) - cap(a.Queue); len(a.Queue) > 0 && off > 0 && &a.qbuf[:off+1][off] == &a.Queue[0] {
		a.Queue = a.qbuf[off-1 : off+len(a.Queue)]
		a.Queue[0] = r
		return
	}
	a.push(nil)
	copy(a.Queue[1:], a.Queue)
	a.Queue[0] = r
}

// Dequeue pops the oldest pending request, or nil.
func (a *App) Dequeue() *Request {
	if len(a.Queue) == 0 {
		return nil
	}
	r := a.Queue[0]
	a.Queue[0] = nil
	a.Queue = a.Queue[1:]
	return r
}

// QueueDelay returns the age of the oldest pending request at time now —
// the queueing-delay signal both Caladan and VESSEL schedulers use (§4.5).
func (a *App) QueueDelay(now sim.Time) sim.Duration {
	if len(a.Queue) == 0 {
		return 0
	}
	return now.Sub(a.Queue[0].Arrive)
}

// Complete records a finished request (if after the measurement start).
func (a *App) Complete(r *Request, measureFrom sim.Time) {
	a.Completed++
	if r.Arrive >= measureFrom {
		a.Lat.Record(int64(r.Sojourn()))
	}
}

// GenerateArrivals schedules the app's Poisson (optionally burst-modulated)
// arrival process on the engine until the given time. onArrival is invoked
// for each arrival after the request is queued.
func (a *App) GenerateArrivals(eng *sim.Engine, rng *sim.RNG, until sim.Time, onArrival func(*Request)) error {
	if a.Kind != LatencyCritical {
		return fmt.Errorf("workload: %s is not latency-critical", a.Name)
	}
	if math.IsNaN(a.RateK) || math.IsInf(a.RateK, 0) {
		// NaN slips past the <= 0 check below, and the float→Duration
		// conversion of 1e9/NaN is undefined; reject explicitly.
		return fmt.Errorf("workload: %s has non-finite rate %v", a.Name, a.RateK)
	}
	if a.RateK <= 0 {
		return nil
	}
	if a.Dist == nil {
		return fmt.Errorf("workload: %s has no service distribution", a.Name)
	}
	if a.Burst != nil && (a.Burst.OnMean <= 0 || a.Burst.OffMean <= 0) {
		// Exp of a non-positive mean is 0, so phase ends would never
		// advance and the catch-up loop below would spin forever.
		return fmt.Errorf("workload: %s burst phase means must be positive (on=%v off=%v)",
			a.Name, a.Burst.OnMean, a.Burst.OffMean)
	}
	arrivals := rng.Fork(1)
	services := rng.Fork(2)
	bursts := rng.Fork(3)

	baseGap := sim.Duration(1e9 / a.RateK) // ns between arrivals at base rate

	// Burst modulation state.
	factor := 1.0
	var phaseEnd sim.Time
	inOn := false
	nextPhase := func(now sim.Time) {
		if a.Burst == nil {
			phaseEnd = sim.MaxTime
			return
		}
		onMul, offMul := a.Burst.multipliers()
		if inOn {
			inOn = false
			factor = offMul
			phaseEnd = now.Add(bursts.Exp(a.Burst.OffMean))
		} else {
			inOn = true
			factor = onMul
			phaseEnd = now.Add(bursts.Exp(a.Burst.OnMean))
		}
	}
	nextPhase(0)

	// One callback serves every arrival: it draws the next gap and
	// reschedules itself, so the process allocates only its Requests.
	var arrive func()
	arrive = func() {
		now := eng.Now()
		for a.Burst != nil && now >= phaseEnd {
			nextPhase(phaseEnd)
		}
		svc := a.Dist.Sample(services)
		r := &Request{App: a, Arrive: now, Service: svc, Remaining: svc}
		a.Enqueue(r)
		if onArrival != nil {
			onArrival(r)
		}
		gap := sim.Duration(float64(arrivals.Exp(baseGap)) / factor)
		if gap < 1 {
			gap = 1
		}
		if next := now.Add(gap); next <= until {
			eng.At(next, arrive)
		}
	}
	if first := sim.Time(arrivals.Exp(baseGap)); first <= until {
		eng.At(first, arrive)
	}
	return nil
}

// Sample forwards to the app's service distribution (helper for
// schedulers that sample work directly).
func (a *App) Sample(r *sim.RNG) sim.Duration { return a.Dist.Sample(r) }

// TracePoint is one recorded arrival for replay: when it arrives and how
// much service it needs.
type TracePoint struct {
	At      sim.Time
	Service sim.Duration
}

// ReplayArrivals schedules an exact recorded arrival trace instead of a
// stochastic process — for regression tests and for replaying captured
// workloads. Points must be in non-decreasing time order.
func (a *App) ReplayArrivals(eng *sim.Engine, pts []TracePoint, onArrival func(*Request)) error {
	if a.Kind != LatencyCritical {
		return fmt.Errorf("workload: %s is not latency-critical", a.Name)
	}
	var prev sim.Time
	for _, p := range pts {
		if p.At < prev {
			return fmt.Errorf("workload: trace not time-ordered at %v", p.At)
		}
		prev = p.At
	}
	for _, p := range pts {
		p := p
		eng.At(p.At, func() {
			r := &Request{App: a, Arrive: p.At, Service: p.Service, Remaining: p.Service}
			a.Enqueue(r)
			if onArrival != nil {
				onArrival(r)
			}
		})
	}
	return nil
}
