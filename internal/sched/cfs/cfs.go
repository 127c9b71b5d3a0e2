// Package cfs implements the Linux baseline of §6.1: every worker thread is
// a CFS entity on a per-core runqueue, the L-app runs at nice −19 and
// B-apps at nice 20 (clamped to 19, the kernel's maximum), and all
// scheduling crosses the kernel.
//
// The model reproduces the mechanics behind the paper's observation that
// CFS sustains throughput at low load but with latencies orders of
// magnitude above the userspace schedulers:
//
//   - every request wakes a sleeping worker through the kernel wakeup path
//     (§2.1: memcached workers "suspend CPU cores frequently");
//   - wakeup preemption of a best-effort thread pays a resched-IPI plus a
//     full kernel context switch;
//   - network receive processing shares cores with the B-app: when the
//     designated receive core is running best-effort work, softirq
//     processing is deferred (NAPI/ksoftirqd competing under load), a
//     heavy-tailed delay calibrated to the paper's >10 ms P999.
package cfs

import (
	"vessel/internal/kernel"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with the CFS model.
type Simulator struct {
	// LNice and BNice override the paper's −19/+20 if non-nil tests
	// need to.
	LNice int
	BNice int
}

// Name returns "Linux".
func (Simulator) Name() string { return "Linux" }

// softirqMean is the mean of the exponential deferral a request suffers
// when its receive core is occupied by best-effort work.
const softirqMean = 1500 * sim.Microsecond

// reschedLatency is resched-IPI plus interrupt-return before a preemption
// takes effect.
const reschedLatency = 2 * sim.Microsecond

type thread struct {
	ent      *kernel.Entity
	app      *workload.App
	kind     workload.Kind
	core     int
	sleeping bool
	// in-flight request state (L threads).
	req       *workload.Request
	remaining sim.Duration
}

type core struct {
	id       int
	rq       *kernel.Runqueue
	cur      *thread
	curSince sim.Time
	ev       sim.Event
	act      sched.Activity
	lastT    sim.Time
	// pendingRx is the core's receive ring: requests whose softirq
	// processing has not run yet; rxFlush is the pending softirq event.
	pendingRx []*workload.Request
	rxFlush   sim.Event
	// viaSwitch marks a dispatch reached through the kernel context
	// switch, so the switched-in request's journey can attribute the
	// crossing to its gate segment.
	viaSwitch bool
}

type run struct {
	cfg   sched.Config
	eng   *sim.Engine
	rng   *sim.RNG
	acct  sched.Accountant
	bw    *sched.BW
	k     *kernel.Kernel
	cores []*core
	// workers[app] lists the app's threads across cores.
	workers map[*workload.App][]*thread
	endAt   sim.Time
	homeRR  int

	funnel map[*workload.App]sim.Duration
	bWall  map[*workload.App]sim.Duration
	lWork  map[*workload.App]sim.Duration

	switches, preempts uint64
	entID              int
}

// Run executes the workload under the CFS model.
func (s Simulator) Run(cfg sched.Config) (sched.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sched.Result{}, err
	}
	lNice, bNice := -19, 19
	if s.LNice != 0 {
		lNice = s.LNice
	}
	if s.BNice != 0 {
		bNice = s.BNice
	}
	r := &run{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		rng:     sim.NewRNG(cfg.Seed),
		bw:      sched.NewBW(cfg.Costs.MemBWTotal),
		workers: make(map[*workload.App][]*thread),
		funnel:  make(map[*workload.App]sim.Duration),
		bWall:   make(map[*workload.App]sim.Duration),
		lWork:   make(map[*workload.App]sim.Duration),
	}
	r.k = kernel.New(r.eng, cfg.Costs)
	r.endAt = sim.Time(cfg.Warmup + cfg.Duration)
	r.acct = sched.Accountant{From: sim.Time(cfg.Warmup), To: r.endAt, Obs: cfg.Obs, Journey: cfg.Journey}
	for i := 0; i < cfg.Cores; i++ {
		r.cores = append(r.cores, &core{id: i, rq: kernel.NewRunqueue(), act: sched.ActIdle})
	}
	for _, a := range cfg.Apps {
		nice := bNice
		if a.Kind == workload.LatencyCritical {
			nice = lNice
		}
		for i := 0; i < cfg.Cores; i++ {
			th := &thread{
				ent:  kernel.NewEntity(r.entID, nice),
				app:  a,
				kind: a.Kind,
				core: i,
			}
			r.entID++
			th.ent.UserData = th
			r.workers[a] = append(r.workers[a], th)
			if a.Kind == workload.LatencyCritical {
				th.sleeping = true // wakes on demand
			} else {
				r.cores[i].rq.Enqueue(th.ent, false)
			}
		}
	}
	for _, a := range cfg.Apps {
		if a.Kind != workload.LatencyCritical {
			continue
		}
		app := a
		if err := app.GenerateArrivals(r.eng, r.rng.Fork(uint64(len(app.Name))+29), r.endAt, func(req *workload.Request) {
			req.J = cfg.Journey.Mint(app.Name, req.Arrive)
			r.onArrival(app)
		}); err != nil {
			return sched.Result{}, err
		}
	}
	r.eng.At(0, func() {
		for _, c := range r.cores {
			r.schedule(c)
		}
	})
	r.eng.At(sim.Time(cfg.Warmup), func() { r.bw.ResetAvg(r.eng.Now()) })
	r.eng.Run(r.endAt)
	return r.collect()
}

func (r *run) setAct(c *core, act sched.Activity) {
	now := r.eng.Now()
	label := ""
	if c.cur != nil {
		label = c.cur.app.Name
	}
	r.acct.AccrueCore(c.id, c.act, c.lastT, now, label)
	c.act = act
	c.lastT = now
}

// onArrival models the receive path: RSS steers the packet to a
// round-robin receive core, where it sits in that core's receive ring until
// the core's softirq processing runs. A core running best-effort work
// defers softirq processing heavy-tailed (NAPI budget exhaustion pushes
// work to ksoftirqd, which competes with the B-app); a core that is idle or
// running the L-app processes it promptly. Each core's ring is flushed as a
// batch — packets on one core cannot be rescued by another core's softirq.
func (r *run) onArrival(app *workload.App) {
	home := r.cores[r.homeRR%len(r.cores)]
	r.homeRR++
	req := app.StealNewest()
	if req == nil {
		return
	}
	// The packet sits in the receive ring until softirq processing runs:
	// dataplane time on the journey.
	req.J.To(journey.SegData, r.eng.Now())
	home.pendingRx = append(home.pendingRx, req)
	if home.rxFlush.Pending() {
		return // this core's softirq is already scheduled; batch behind it
	}
	var deferral sim.Duration
	if home.cur != nil && home.cur.kind == workload.BestEffort {
		deferral = r.rng.Exp(softirqMean)
		if deferral > 20*sim.Millisecond {
			deferral = 20 * sim.Millisecond
		}
	}
	home.rxFlush = r.eng.After(deferral+r.cfg.Costs.CFSWakeupCost, func() { r.flushRx(home) })
}

// flushRx is the core's softirq bottom half: release every buffered
// request to its app queue and wake workers.
func (r *run) flushRx(c *core) {
	c.rxFlush = sim.Event{}
	apps := make([]*workload.App, 0, 2)
	for _, req := range c.pendingRx {
		req.J.To(journey.SegQueue, r.eng.Now())
		req.App.Requeue(req)
		seen := false
		for _, a := range apps {
			if a == req.App {
				seen = true
				break
			}
		}
		if !seen {
			apps = append(apps, req.App)
		}
	}
	c.pendingRx = c.pendingRx[:0]
	for _, a := range apps {
		r.wake(a)
	}
}

// wake makes one sleeping worker of app runnable and applies wakeup
// preemption against a best-effort current.
func (r *run) wake(app *workload.App) {
	if r.eng.Now() >= r.endAt {
		return
	}
	var w *thread
	for _, th := range r.workers[app] {
		if th.sleeping {
			w = th
			break
		}
	}
	if w == nil {
		return // all workers awake; the queue drains through them
	}
	w.sleeping = false
	c := r.cores[w.core]
	c.rq.Enqueue(w.ent, true)
	if c.cur == nil {
		r.schedule(c)
		return
	}
	if c.cur.kind == workload.BestEffort && c.rq.ShouldPreempt(w.ent) {
		r.preempt(c)
	}
}

// preempt interrupts the current thread after the resched latency.
func (r *run) preempt(c *core) {
	cur := c.cur
	r.preempts++
	r.eng.After(reschedLatency, func() {
		if c.cur != cur || c.cur == nil {
			return // already switched
		}
		r.stopCurrent(c, false)
		r.schedule(c)
	})
}

// stopCurrent accounts the current thread's run and returns it to the
// runqueue (or leaves it off if blocked).
func (r *run) stopCurrent(c *core, blocked bool) {
	cur := c.cur
	if cur == nil {
		return
	}
	now := r.eng.Now()
	r.eng.Cancel(c.ev)
	c.ev = sim.Event{}
	ran := now.Sub(c.curSince)
	c.rq.Account(ran)
	if cur.kind == workload.BestEffort {
		useful := r.acct.Clip(c.curSince, now)
		if useful > 0 {
			r.funnel[cur.app] += sim.Duration(float64(useful) / r.bw.Inflation())
			r.bWall[cur.app] += useful
		}
		r.bw.Remove(now, cur.app.AvgBW())
	} else if cur.req != nil {
		// Partial service: remember the remainder.
		done := sim.Duration(float64(ran) / r.bw.Inflation())
		if done > cur.remaining {
			done = cur.remaining
		}
		cur.remaining -= done
		// The preempted request waits on the runqueue with its thread.
		cur.req.J.To(journey.SegQueue, now)
	}
	if blocked {
		c.rq.Retire()
		cur.sleeping = true
	} else {
		c.rq.PutPrev()
	}
	c.cur = nil
}

// schedule picks the next entity on a core and runs it.
func (r *run) schedule(c *core) {
	now := r.eng.Now()
	if now >= r.endAt {
		r.setAct(c, sched.ActIdle)
		return
	}
	ent := c.rq.PickNext()
	if ent == nil {
		c.cur = nil
		r.setAct(c, sched.ActIdle)
		return
	}
	th := ent.UserData.(*thread)
	// Kernel context switch cost.
	r.switches++
	r.setAct(c, sched.ActKernel)
	c.cur = th
	r.eng.After(r.cfg.Costs.CFSSwitchCost, func() {
		c.viaSwitch = true
		r.dispatch(c, th)
	})
}

// dispatch starts the picked thread's run.
func (r *run) dispatch(c *core, th *thread) {
	now := r.eng.Now()
	viaSwitch := c.viaSwitch
	c.viaSwitch = false
	if c.cur != th {
		return
	}
	c.curSince = now
	if th.kind == workload.BestEffort {
		r.bw.Add(now, th.app.AvgBW())
		r.setAct(c, sched.ActApp)
		slice := c.rq.Timeslice()
		c.ev = r.eng.After(slice, func() {
			c.ev = sim.Event{}
			r.stopCurrent(c, false)
			r.schedule(c)
		})
		return
	}
	// L worker: continue an in-flight request or take the next one.
	if th.req == nil {
		req := th.app.Dequeue()
		if req == nil {
			// Nothing to do: block.
			c.rq.Account(now.Sub(c.curSince))
			c.rq.Retire()
			th.sleeping = true
			c.cur = nil
			r.schedule(c)
			return
		}
		req.Start = now
		th.req = req
		th.remaining = req.Service
	}
	if viaSwitch {
		// The kernel context switch gated this request's (re)dispatch:
		// attribute it retroactively (clamped if the request arrived or
		// was queued mid-switch).
		th.req.J.To(journey.SegGate, now.Add(-r.cfg.Costs.CFSSwitchCost))
	}
	th.req.J.To(journey.SegRun, now)
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(th.remaining)*r.bw.Inflation()) + r.bw.StallNoise(r.rng)
	slice := c.rq.Timeslice()
	if dur <= slice {
		c.ev = r.eng.After(dur, func() {
			c.ev = sim.Event{}
			r.completeRequest(c, th)
		})
	} else {
		c.ev = r.eng.After(slice, func() {
			c.ev = sim.Event{}
			r.stopCurrent(c, false)
			r.schedule(c)
		})
	}
}

// completeRequest finishes th's request and continues with the app queue.
func (r *run) completeRequest(c *core, th *thread) {
	now := r.eng.Now()
	req := th.req
	req.Done = now
	req.J.Finish(now)
	th.app.Complete(req, sim.Time(r.cfg.Warmup))
	r.lWork[th.app] += r.acct.Clip(c.curSince, now)
	th.req = nil
	th.remaining = 0
	c.rq.Account(now.Sub(c.curSince))
	c.curSince = now
	if now >= r.endAt {
		return
	}
	// Serve the queue run-to-completion while we still hold the core.
	r.dispatch(c, th)
}

// collect finalises accounting.
func (r *run) collect() (sched.Result, error) {
	now := r.eng.Now()
	for _, c := range r.cores {
		if c.cur != nil && c.cur.kind == workload.BestEffort {
			useful := r.acct.Clip(c.curSince, now)
			if useful > 0 {
				r.funnel[c.cur.app] += sim.Duration(float64(useful) / r.bw.Inflation())
				r.bWall[c.cur.app] += useful
			}
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, c.act)
	}
	if o := r.cfg.Obs; o != nil {
		o.Reg().Add("cfs.switches", r.switches)
		o.Reg().Add("cfs.preempts", r.preempts)
	}
	res := sched.Result{
		Scheduler:   "Linux",
		Cores:       r.cfg.Cores,
		Measured:    r.cfg.Duration,
		Cycles:      r.acct.Breakdown,
		Switches:    r.switches,
		Preemptions: r.preempts,
	}
	for _, a := range r.cfg.Apps {
		ar := sched.AppResult{Name: a.Name, Kind: a.Kind, Offered: a.Offered, Completed: a.Completed}
		if a.Kind == workload.LatencyCritical {
			ar.Latency = a.Lat.Summarize()
			ar.Tput = stats.Rate{Count: a.Lat.Count(), Elapsed: int64(r.cfg.Duration)}
			ar.LBusyNs = r.lWork[a]
		} else {
			ar.BUsefulNs = r.funnel[a]
			ar.BWallNs = r.bWall[a]
			ar.Tput = stats.Rate{Count: uint64(ar.BUsefulNs), Elapsed: int64(r.cfg.Duration)}
			ar.AvgBWGBs = a.AvgBW() * float64(r.bWall[a]) / float64(r.cfg.Duration)
		}
		res.Apps = append(res.Apps, ar)
	}
	sched.Normalize(&res, r.cfg)
	return res, nil
}
