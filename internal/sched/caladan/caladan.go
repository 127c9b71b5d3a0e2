// Package caladan reimplements Caladan's two-level scheduling policy
// (Fried et al., OSDI '20) with the Delay Range refinement (McClure et al.,
// NSDI '22) on the shared simulated machine, as the paper's primary
// comparator (§2.1, §6).
//
// The policy, as the paper characterises it:
//
//   - cores are *owned* by one application at a time; the IOKernel grants
//     and revokes them at a 10 µs decision interval (§4.5);
//   - an idle core first busy-polls/steals within its application for at
//     least 2 µs before parking (§4.5);
//   - parking and handing a core to another application crosses the kernel:
//     2.1 µs on the voluntary path (Table 1), 5.3 µs when a running task
//     must be preempted (Figure 3);
//   - Delay Range trades CPU efficiency against tail latency by requiring
//     an application's queueing delay to exceed a threshold before the
//     IOKernel reallocates a core: DR-L ≈ 0.5–1 µs, DR-H ≈ 1–4 µs (Fig. 9).
package caladan

import (
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Variant selects the Delay Range configuration.
type Variant int

// The paper's three Caladan configurations.
const (
	Plain  Variant = iota // grant on any queued work
	DRLow                 // Delay Range 0.5–1 µs
	DRHigh                // Delay Range 1–4 µs
)

// Simulator implements sched.Scheduler with Caladan's policy.
type Simulator struct {
	Variant Variant
}

// Name identifies the variant.
func (s Simulator) Name() string {
	switch s.Variant {
	case DRLow:
		return "Caladan-DR-L"
	case DRHigh:
		return "Caladan-DR-H"
	default:
		return "Caladan"
	}
}

// grantThreshold returns the queueing delay above which the IOKernel
// reallocates a core to the app.
func (s Simulator) grantThreshold() sim.Duration {
	switch s.Variant {
	case DRLow:
		return 750 // mid of 0.5–1 µs
	case DRHigh:
		return 2500 // mid of 1–4 µs
	default:
		return 1
	}
}

type coreMode uint8

const (
	modeFree coreMode = iota // owned by the IOKernel, idle
	modeServeL
	modePollL // in the steal window, burning runtime cycles
	modeRunB
	modeTransition
)

// core is a worker core; its sched.Core Owner is the L or B app that
// owns it.
type core struct {
	sched.Core
	mode coreMode
	// grantedAt lets the victim-selection prefer the longest holder.
	grantedAt sim.Time
	pollEnd   sim.Event
	// grantD remembers the kernel cost of the grant that just handed
	// this core over, so the first request served afterwards can
	// attribute that crossing to its journey's gate segment.
	grantD sim.Duration
	// cur is the request in service since from.
	cur  *workload.Request
	from sim.Time
	// finish and pollDone end a request and a steal window; bound once
	// per core so scheduling either allocates nothing.
	finish, pollDone func()
}

type run struct {
	sched.Base
	v     Simulator
	cores []*core
	// bwSampled is the IOKernel's view of bandwidth demand, refreshed
	// only at its 10 µs decision ticks. Grant decisions between ticks
	// act on this stale sample — the control-loop coarseness that makes
	// Caladan's regulation overshoot (§6.3.4).
	bwSampled float64
	// coreCount is grantCore's scratch tally of L cores per app, by
	// App.Index.
	coreCount []int
}

// Run executes the workload under Caladan's policy.
func (s Simulator) Run(cfg sched.Config) (sched.Result, error) {
	r := &run{v: s}
	if err := r.Init(cfg); err != nil {
		return sched.Result{}, err
	}
	cfg = r.Cfg // with defaults filled in
	r.coreCount = make([]int, len(cfg.Apps))
	for i := 0; i < cfg.Cores; i++ {
		c := &core{mode: modeFree}
		r.AddCore(&c.Core)
		c.finish = func() { r.finishL(c) }
		c.pollDone = func() {
			c.pollEnd = sim.Event{}
			r.parkCore(c)
		}
		r.cores = append(r.cores, c)
	}
	// Every packet traverses the IOKernel before it reaches an
	// application queue — the single-server control plane whose
	// saturation caps Caladan at ~34 cores (Figure 12).
	ctrlCost := cfg.Costs.CaladanCtrlFor(cfg.Cores)
	ctrl := sched.NewCtrlPlane(r.Eng, ctrlCost)
	for _, a := range r.LApps {
		app := a
		lane := ctrl.Lane(app, func(req *workload.Request) {
			req.J.To(journey.SegQueue, r.Eng.Now())
			r.onArrival(app)
		})
		if err := r.Arrivals(app, 13, func(req *workload.Request) {
			if ctrlCost <= 0 {
				r.onArrival(app)
				return
			}
			// The packet is inside the IOKernel until the control-plane
			// server forwards it: dataplane time on the journey.
			req.J.To(journey.SegData, r.Eng.Now())
			lane.Submit()
		}); err != nil {
			return sched.Result{}, err
		}
	}
	// IOKernel decision loop.
	r.Every(0, cfg.Costs.CaladanReallocMs, r.iokernel)
	return r.Base.Run(s.Name(), sched.Counters{
		Switches: "caladan.switches", Preempts: "caladan.preempts", Reallocs: "caladan.reallocs",
	}), nil
}

// onArrival: a polling core of the same app picks the request up
// immediately; otherwise the request waits for a completion or for the
// IOKernel's next decision tick.
func (r *run) onArrival(app *workload.App) {
	for _, c := range r.cores {
		if c.mode == modePollL && c.Owner == app {
			r.Eng.Cancel(c.pollEnd)
			c.pollEnd = sim.Event{}
			r.serveL(c, app)
			return
		}
	}
}

// serveL runs requests run-to-completion on an L-owned core.
func (r *run) serveL(c *core, app *workload.App) {
	req := app.Dequeue()
	if req == nil {
		c.grantD = 0
		r.startPolling(c, app)
		return
	}
	now := r.Eng.Now()
	req.Start = now
	if c.grantD > 0 {
		// The kernel crossing that granted this core gated the request's
		// dispatch: attribute it retroactively (the clamp keeps the
		// identity exact if the request arrived mid-grant).
		req.J.To(journey.SegGate, now.Add(-c.grantD))
		c.grantD = 0
	}
	req.J.To(journey.SegRun, now)
	c.mode = modeServeL
	c.SetAct(sched.ActApp)
	c.cur, c.from = req, now
	dur := sim.Duration(float64(req.Service)*r.BW.Inflation()) + r.BW.StallNoise(r.RNG)
	r.Eng.After(dur, c.finish)
}

// finishL completes c.cur and serves the owner's next request.
func (r *run) finishL(c *core) {
	req, app := c.cur, c.Owner
	c.cur = nil
	r.Complete(req, c.from)
	if r.Eng.Now() >= r.EndAt {
		return
	}
	r.serveL(c, app)
}

// startPolling begins the 2 µs steal window: the core spins inside its app
// looking for work before giving the core back (§4.5).
func (r *run) startPolling(c *core, app *workload.App) {
	c.mode = modePollL
	c.SetAct(sched.ActRuntime)
	c.pollEnd = r.Eng.After(r.Cfg.Costs.CaladanStealWin, c.pollDone)
}

// parkCore executes the voluntary yield: a kernel crossing, after which the
// core belongs to the IOKernel and is immediately handed to a B-app if one
// wants it.
func (r *run) parkCore(c *core) {
	c.mode = modeTransition
	c.Owner = nil
	c.SetAct(sched.ActKernel)
	r.Switches++
	r.Eng.After(r.Cfg.Costs.CaladanParkPath, func() {
		c.mode = modeFree
		c.SetAct(sched.ActIdle)
		r.grantFreeCore(c)
	})
}

// grantFreeCore reacts to a core becoming free: the IOKernel notices free
// cores within its polling loop (only *reallocation of busy cores* is
// limited to the 10 µs interval), so an L-app past its Delay Range
// threshold gets it immediately; otherwise a B-app harvests it.
func (r *run) grantFreeCore(c *core) {
	if c.mode != modeFree || r.Eng.Now() >= r.EndAt {
		return
	}
	thr := r.v.grantThreshold()
	now := r.Eng.Now()
	var best *workload.App
	var bestDelay sim.Duration
	for _, app := range r.LApps {
		if d := app.QueueDelay(now); d >= thr && d > bestDelay {
			best = app
			bestDelay = d
		}
	}
	if best != nil {
		r.transition(c, best, r.Cfg.Costs.CaladanParkPath)
		return
	}
	r.grantFreeCoreToB(c)
}

// grantFreeCoreToB hands a free core to a best-effort app (respecting the
// bandwidth budget).
func (r *run) grantFreeCoreToB(c *core) {
	if c.mode != modeFree || r.Eng.Now() >= r.EndAt {
		return
	}
	for _, b := range r.BApps {
		if r.BWCap > 0 && r.bwSampled+b.AvgBW() > r.BWCap {
			continue
		}
		c.mode = modeRunB
		c.Owner = b
		c.grantedAt = r.Eng.Now()
		c.StartB()
		return
	}
}

// iokernel is the 10 µs decision loop: grant cores to L-apps whose queueing
// delay exceeds the Delay Range threshold, preferring free cores, then
// B-cores (preemption), then — for dense L-on-L colocation — cores of
// L-apps holding more than their share.
func (r *run) iokernel() {
	now := r.Eng.Now()
	if now >= r.EndAt {
		return
	}
	// Refresh the bandwidth sample the inter-tick grant path uses.
	r.bwSampled = r.BW.Demand()
	thr := r.v.grantThreshold()
	for _, app := range r.LApps {
		if app.QueueDelay(now) < thr {
			continue
		}
		// Skip if the app already has a polling core about to pick the
		// work up (it will, at the poll boundary).
		polling := false
		for _, c := range r.cores {
			if c.Owner == app && c.mode == modePollL {
				polling = true
				break
			}
		}
		if polling {
			continue
		}
		r.grantCore(app)
	}
	// Hand remaining free cores to best-effort apps.
	for _, c := range r.cores {
		if c.mode == modeFree {
			r.grantFreeCoreToB(c)
		}
	}
	// Bandwidth regulation at IOKernel granularity: revoke B cores while
	// over budget.
	if r.BWCap > 0 {
		for r.BW.Demand() > r.BWCap {
			victim := r.pickBVictim()
			if victim == nil {
				break
			}
			r.preemptToFree(victim)
		}
	}
}

// grantCore moves one core to app, preferring free > B > over-provisioned L.
func (r *run) grantCore(app *workload.App) {
	// Free core: wake + kernel switch into the app's kProcess.
	for _, c := range r.cores {
		if c.mode == modeFree {
			r.transition(c, app, r.Cfg.Costs.CaladanParkPath)
			return
		}
	}
	// Preempt a best-effort core: the full Figure 3 path.
	if victim := r.pickBVictim(); victim != nil {
		victim.StopB()
		r.transition(victim, app, r.Cfg.Costs.CaladanReallocTotal())
		r.Preempts++
		return
	}
	// Dense colocation: preempt another L-app's core. Choose the app
	// holding the most cores; prefer a polling core, else a serving one.
	var victim *core
	bestCount := 0
	counts := r.coreCount
	clear(counts)
	for _, c := range r.cores {
		if c.Owner != nil && c.Owner.Kind == workload.LatencyCritical {
			counts[c.Owner.Index]++
		}
	}
	for _, c := range r.cores {
		if c.Owner == nil || c.Owner == app || c.Owner.Kind != workload.LatencyCritical {
			continue
		}
		if c.mode != modePollL && c.mode != modeServeL {
			continue
		}
		n := counts[c.Owner.Index]
		better := n > bestCount || (n == bestCount && victim != nil && victim.mode == modeServeL && c.mode == modePollL)
		if victim == nil || better {
			victim = c
			bestCount = n
		}
	}
	if victim == nil {
		return
	}
	r.Eng.Cancel(victim.pollEnd)
	victim.pollEnd = sim.Event{}
	if victim.mode == modeServeL {
		// The in-flight request finishes on the new owner's dime in
		// real Caladan (the preempted thread is rescheduled); model the
		// preemption as taking effect after the current request, which
		// the completion handler does naturally — so just mark: here we
		// only preempt polling cores to keep request execution simple.
		return
	}
	r.transition(victim, app, r.Cfg.Costs.CaladanReallocTotal())
	r.Preempts++
}

// pickBVictim returns a B-owned core, preferring the longest holder.
func (r *run) pickBVictim() *core {
	var victim *core
	for _, c := range r.cores {
		if c.mode == modeRunB {
			if victim == nil || c.grantedAt < victim.grantedAt {
				victim = c
			}
		}
	}
	return victim
}

// preemptToFree revokes a B core without granting it (bandwidth policy).
func (r *run) preemptToFree(c *core) {
	c.StopB()
	c.Owner = nil
	c.mode = modeTransition
	c.SetAct(sched.ActKernel)
	r.Preempts++
	r.Switches++
	r.Eng.After(r.Cfg.Costs.CaladanParkPath, func() {
		c.mode = modeFree
		c.SetAct(sched.ActIdle)
	})
}

// transition moves a core to an L-app with the given kernel cost.
func (r *run) transition(c *core, app *workload.App, cost sim.Duration) {
	c.mode = modeTransition
	c.Owner = app
	c.grantedAt = r.Eng.Now()
	c.SetAct(sched.ActKernel)
	r.Switches++
	r.Reallocs++
	r.Eng.After(cost, func() {
		if r.Eng.Now() >= r.EndAt {
			return
		}
		c.grantD = cost
		r.serveL(c, app)
	})
}
