// Package vessel implements VESSEL (§5): the userspace core scheduler built
// on the uProcess abstraction. It contains two connected pieces:
//
//   - Manager (manager.go): the layer-1 control plane over uproc.Domain —
//     creating SMAS, launching uProcesses from programs, and driving
//     the mechanism model (used by the Table 1 microbenchmark and the
//     examples);
//   - Simulator (this file): the layer-2 performance model implementing
//     sched.Scheduler with VESSEL's one-level policy (§4.5): per-core FIFO
//     queues holding threads of *different* applications, a global
//     best-effort queue, sub-µs Uintr preemption of BE cores, and
//     bandwidth-aware core regulation at microsecond granularity.
//
// The switching costs the Simulator charges (VesselParkSwitch ≈ 161 ns,
// VesselPreemptSwitch ≈ 260 ns) are the calibrated equivalents of what the
// layer-1 machine measures instruction-by-instruction.
package vessel

import (
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with VESSEL's one-level policy.
type Simulator struct{}

// Name returns "VESSEL".
func (Simulator) Name() string { return "VESSEL" }

// coreState is a worker core in the layer-2 model.
type coreState struct {
	id int
	// fifo is the per-core FIFO of resident L-app worker threads,
	// rotated on every park (§4.5).
	fifo []*workload.App
	// runningL/runningB describe the current occupant.
	runningL *workload.App
	runningB *workload.App
	busy     bool // an event will fire for this core
	// In-flight request state, for §4.4 priority preemption.
	curReq    *workload.Request
	reqEv     sim.Event
	reqFrom   sim.Time
	reqInflat float64

	act   sched.Activity
	lastT sim.Time
	// bStart marks when the current B run began (for useful-time
	// accrual); bPending guards against double preemption.
	bStart    sim.Time
	preempted bool
}

type vesselRun struct {
	cfg  sched.Config
	eng  *sim.Engine
	rng  *sim.RNG
	acct sched.Accountant
	bw   *sched.BW

	cores    []*coreState
	lApps    []*workload.App
	bApps    []*workload.App
	reacting map[*workload.App]bool // single-flight preemption chains
	beQ      []*workload.App        // global BE queue (entries = schedulable B threads)
	bwCap    float64                // B-app bandwidth budget in GB/s (0 = unlimited)
	endAt    sim.Time
	funnel   map[*workload.App]sim.Duration // per-B useful ns (contention-deflated)
	bWall    map[*workload.App]sim.Duration // per-B wall ns on cores
	lWork    map[*workload.App]sim.Duration // per-L-app core time on requests

	switches, preempts, reallocs uint64
}

// Run executes the configured workload under VESSEL's scheduler.
func (Simulator) Run(cfg sched.Config) (sched.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sched.Result{}, err
	}
	r := &vesselRun{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		rng:      sim.NewRNG(cfg.Seed),
		bw:       sched.NewBW(cfg.Costs.MemBWTotal),
		funnel:   make(map[*workload.App]sim.Duration),
		bWall:    make(map[*workload.App]sim.Duration),
		lWork:    make(map[*workload.App]sim.Duration),
		reacting: make(map[*workload.App]bool),
	}
	r.endAt = sim.Time(cfg.Warmup + cfg.Duration)
	r.acct = sched.Accountant{From: sim.Time(cfg.Warmup), To: r.endAt, Obs: cfg.Obs, Journey: cfg.Journey}
	if cfg.BWTargetFrac > 0 {
		r.bwCap = cfg.BWTargetFrac * cfg.Costs.MemBWTotal
	}
	for _, a := range cfg.Apps {
		if a.Kind == workload.LatencyCritical {
			r.lApps = append(r.lApps, a)
		} else {
			r.bApps = append(r.bApps, a)
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{id: i, act: sched.ActIdle}
		// Every L-app has a worker thread resident on every core.
		c.fifo = append(c.fifo, r.lApps...)
		r.cores = append(r.cores, c)
	}
	// One BE thread per core per B-app in the global queue.
	for i := 0; i < cfg.Cores; i++ {
		for _, b := range r.bApps {
			r.beQ = append(r.beQ, b)
		}
	}
	// Arrival processes. Every request's dispatch signal crosses the
	// domain scheduler — a single FIFO control-plane server whose
	// saturation caps core scalability (Figure 12).
	ctrl := cfg.Costs.VesselCtrlFor(cfg.Cores)
	var ctrlFree sim.Time
	for _, a := range r.lApps {
		app := a
		if err := app.GenerateArrivals(r.eng, r.rng.Fork(uint64(len(app.Name))+7), r.endAt, func(req *workload.Request) {
			// Mint the request's journey at arrival; the control-plane
			// dispatch delay below counts as queueing (the request is
			// waiting for the scheduler to learn about it).
			req.J = cfg.Journey.Mint(app.Name, req.Arrive)
			if ctrl <= 0 {
				r.onArrival(app)
				return
			}
			stolen := app.StealNewest()
			now := r.eng.Now()
			start := now
			if ctrlFree > start {
				start = ctrlFree
			}
			done := start.Add(ctrl)
			ctrlFree = done
			r.eng.At(done, func() {
				if stolen != nil {
					app.Requeue(stolen)
				}
				r.onArrival(app)
			})
		}); err != nil {
			return sched.Result{}, err
		}
	}
	// Initial fill: give idle cores to BE threads.
	r.eng.At(0, func() {
		for _, c := range r.cores {
			if !c.busy {
				r.serveNext(c)
			}
		}
	})
	// Bandwidth regulation scan (µs-scale, §6.3.4). Runs only with a
	// configured budget.
	if r.bwCap > 0 {
		var scan func()
		scan = func() {
			r.regulateBW()
			if r.eng.Now() < r.endAt {
				r.eng.After(1*sim.Microsecond, scan)
			}
		}
		r.eng.At(0, scan)
	}
	r.eng.At(sim.Time(cfg.Warmup), func() { r.bw.ResetAvg(r.eng.Now()) })

	r.eng.Run(r.endAt)
	return r.collect()
}

// setAct transitions a core's accounting activity.
func (r *vesselRun) setAct(c *coreState, act sched.Activity) {
	now := r.eng.Now()
	label := ""
	switch {
	case c.runningL != nil:
		label = c.runningL.Name
	case c.runningB != nil:
		label = c.runningB.Name
	}
	r.acct.AccrueCore(c.id, c.act, c.lastT, now, label)
	c.act = act
	c.lastT = now
}

// preemptDelayThreshold is the queueing delay after which the scheduler
// preempts a BE core rather than waiting for a natural completion. VESSEL
// reuses Caladan's queueing-delay metric (§4.5); with sub-µs switches the
// threshold can be tight.
const preemptDelayThreshold = 1 * sim.Microsecond

// onArrival reacts to a new request for app: wake an idle core, or start a
// reaction chain that preempts BE cores once queueing delay exceeds the
// threshold.
func (r *vesselRun) onArrival(app *workload.App) {
	// Prefer an idle core (UMWAIT wake + dispatch).
	for _, c := range r.cores {
		if !c.busy && c.runningB == nil && c.runningL == nil {
			r.wakeIdle(c, app)
			return
		}
	}
	if !r.reacting[app] {
		r.reacting[app] = true
		r.armReaction(app)
	}
}

// armReaction schedules the scheduler's next look at app's queue: one scan
// interval plus the Uintr delivery it would take to act.
func (r *vesselRun) armReaction(app *workload.App) {
	cm := r.cfg.Costs
	r.eng.After(cm.VesselSchedScan+cm.UintrDeliver, func() {
		now := r.eng.Now()
		if len(app.Queue) == 0 || now >= r.endAt {
			r.reacting[app] = false
			return
		}
		if app.QueueDelay(now) >= preemptDelayThreshold {
			preempted := false
			for _, c := range r.cores {
				if c.runningB != nil && !c.preempted {
					r.preemptB(c)
					preempted = true
					break
				}
			}
			// No best-effort core to take: preempt a core serving a
			// strictly lower-priority L-app mid-request (§4.4).
			if !preempted {
				for _, c := range r.cores {
					if c.curReq != nil && c.runningL != nil &&
						c.runningL.Priority < app.Priority {
						r.preemptL(c)
						break
					}
				}
			}
			if preempted && len(app.Queue) > 0 {
				// The head request's dispatch was gated on the user
				// interrupt that just landed: split the last UintrDeliver
				// of its wait retroactively into a uintr segment (the
				// clamp keeps conservation exact if it arrived mid-flight).
				j := app.Queue[0].J
				j.To(journey.SegUintr, now.Add(-cm.UintrDeliver))
				j.To(journey.SegQueue, now)
			}
		}
		// Keep watching until the queue drains: more BE cores may need
		// preempting, or a natural completion may clear it.
		r.armReaction(app)
	})
}

// wakeIdle dispatches an idle core to serve app.
func (r *vesselRun) wakeIdle(c *coreState, app *workload.App) {
	cm := r.cfg.Costs
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.switches++
	r.eng.After(cm.UmwaitWake+cm.VesselParkSwitch, func() {
		c.busy = false
		r.serveNext(c)
	})
}

// preemptB stops the BE thread on c (Uintr handler → gate → switch) and
// lets the core pick up L work.
func (r *vesselRun) preemptB(c *coreState) {
	cm := r.cfg.Costs
	b := c.runningB
	if b == nil {
		return
	}
	c.preempted = true
	r.preempts++
	r.reallocs++
	now := r.eng.Now()
	// The preemption arrived by user interrupt: the reaction timer included
	// one UintrDeliver of flight, so the send→delivery window ends now.
	if o := r.cfg.Obs; o != nil {
		o.Span(c.id, now.Add(-cm.UintrDeliver), now, obs.CatUintr, b.Name)
		o.Reg().Inc("vessel.uintr.preempt")
	}
	// Accrue the B run's useful time, deflated by memory contention.
	useful := r.acct.Clip(c.bStart, now)
	if useful > 0 {
		r.funnel[b] += sim.Duration(float64(useful) / r.bw.Inflation())
		r.bWall[b] += useful
	}
	r.bw.Remove(now, b.AvgBW())
	c.runningB = nil
	c.preempted = false
	// Preempted BE threads go back to the global BE queue (§4.5).
	r.beQ = append(r.beQ, b)
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.switches++
	r.eng.After(cm.VesselPreemptSwitch, func() {
		c.busy = false
		r.serveNext(c)
	})
}

// serveNext is the core's dispatch loop: first L work from the per-core
// FIFO (rotating), then a BE thread from the global queue, else idle.
func (r *vesselRun) serveNext(c *coreState) {
	if c.busy {
		return
	}
	now := r.eng.Now()
	if now >= r.endAt {
		r.setAct(c, sched.ActIdle)
		return
	}
	// Continue the current L app run-to-completion with no switch.
	if c.runningL != nil {
		if req := c.runningL.Dequeue(); req != nil {
			r.startRequest(c, c.runningL, req)
			return
		}
		// Parks: rotate the FIFO so siblings get the core next time.
		c.runningL = nil
	}
	// Scan the per-core FIFO for an L thread with pending work, highest
	// priority first (§4.4); equal priorities keep FIFO rotation order.
	bestPrio := 0
	found := false
	for _, app := range c.fifo {
		if len(app.Queue) > 0 && (!found || app.Priority > bestPrio) {
			bestPrio = app.Priority
			found = true
		}
	}
	if found {
		for i := 0; i < len(c.fifo); i++ {
			app := c.fifo[0]
			c.fifo = append(c.fifo[1:], app)
			if len(app.Queue) > 0 && app.Priority == bestPrio {
				req := app.Dequeue()
				// Switching threads costs one park-path gate trip.
				req.J.To(journey.SegGate, now)
				cm := r.cfg.Costs
				c.busy = true
				r.setAct(c, sched.ActSwitch)
				r.switches++
				r.eng.After(cm.VesselParkSwitch, func() {
					c.busy = false
					r.startRequest(c, app, req)
				})
				return
			}
		}
	}
	// No L work anywhere on this core: run best-effort if the bandwidth
	// budget allows.
	for i := 0; i < len(r.beQ); i++ {
		b := r.beQ[i]
		if r.bwCap > 0 && r.bw.Demand()+b.AvgBW() > r.bwCap {
			continue
		}
		r.beQ = append(r.beQ[:i], r.beQ[i+1:]...)
		r.startB(c, b)
		return
	}
	r.setAct(c, sched.ActIdle)
}

// startRequest runs one L request (or its preempted remainder)
// run-to-completion.
func (r *vesselRun) startRequest(c *coreState, app *workload.App, req *workload.Request) {
	now := r.eng.Now()
	if req.Start == 0 {
		req.Start = now
	}
	if req.Remaining <= 0 {
		req.Remaining = req.Service
	}
	c.runningL = app
	c.busy = true
	c.curReq = req
	c.reqFrom = now
	c.reqInflat = r.bw.Inflation()
	req.J.To(journey.SegRun, now)
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(req.Remaining)*c.reqInflat) + r.bw.StallNoise(r.rng)
	c.reqEv = r.eng.After(dur, func() {
		c.reqEv = sim.Event{}
		c.curReq = nil
		req.Remaining = 0
		req.Done = r.eng.Now()
		req.J.Finish(req.Done)
		app.Complete(req, sim.Time(r.cfg.Warmup))
		r.lWork[app] += r.acct.Clip(now, r.eng.Now())
		c.busy = false
		r.serveNext(c)
	})
}

// preemptL interrupts a core serving a lower-priority L request (§4.4:
// "preemption happens when a high-priority task is blocked by a
// low-priority one"): the in-flight request's remainder goes back to the
// head of its queue and the core re-dispatches through the gate.
func (r *vesselRun) preemptL(c *coreState) {
	req := c.curReq
	if req == nil || !c.reqEv.Pending() {
		return
	}
	now := r.eng.Now()
	r.eng.Cancel(c.reqEv)
	c.reqEv = sim.Event{}
	c.curReq = nil
	served := sim.Duration(float64(now.Sub(c.reqFrom)) / c.reqInflat)
	if served > req.Remaining {
		served = req.Remaining
	}
	req.Remaining -= served
	req.App.RequeueFront(req)
	req.J.To(journey.SegQueue, now)
	c.runningL = nil
	r.preempts++
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.switches++
	r.eng.After(r.cfg.Costs.VesselPreemptSwitch, func() {
		c.busy = false
		r.serveNext(c)
	})
}

// startB puts a BE thread on the core; it runs until preempted.
func (r *vesselRun) startB(c *coreState, b *workload.App) {
	cm := r.cfg.Costs
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.switches++
	r.reallocs++
	r.eng.After(cm.VesselParkSwitch, func() {
		c.busy = false
		c.runningB = b
		c.bStart = r.eng.Now()
		r.bw.Add(r.eng.Now(), b.AvgBW())
		r.setAct(c, sched.ActApp)
	})
}

// regulateBW enforces the B-app bandwidth budget at scan granularity:
// preempt BE cores while demand exceeds the budget.
func (r *vesselRun) regulateBW() {
	for r.bw.Demand() > r.bwCap {
		var victim *coreState
		for _, c := range r.cores {
			if c.runningB != nil && !c.preempted {
				victim = c
				break
			}
		}
		if victim == nil {
			return
		}
		r.preemptB(victim)
	}
	// Under budget: idle cores may pick BE work back up.
	for _, c := range r.cores {
		if !c.busy && c.runningB == nil && c.runningL == nil && len(r.beQ) > 0 {
			r.serveNext(c)
		}
	}
}

// collect finalises accounting and builds the result.
func (r *vesselRun) collect() (sched.Result, error) {
	now := r.eng.Now()
	for _, c := range r.cores {
		// Close out any running B accrual.
		if c.runningB != nil {
			useful := r.acct.Clip(c.bStart, now)
			if useful > 0 {
				r.funnel[c.runningB] += sim.Duration(float64(useful) / r.bw.Inflation())
				r.bWall[c.runningB] += useful
			}
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, c.act)
	}
	if o := r.cfg.Obs; o != nil {
		o.Reg().Add("vessel.switches", r.switches)
		o.Reg().Add("vessel.preempts", r.preempts)
		o.Reg().Add("vessel.reallocs", r.reallocs)
	}
	res := sched.Result{
		Scheduler:     "VESSEL",
		Cores:         r.cfg.Cores,
		Measured:      r.cfg.Duration,
		Cycles:        r.acct.Breakdown,
		Switches:      r.switches,
		Preemptions:   r.preempts,
		Reallocations: r.reallocs,
	}
	for _, a := range r.cfg.Apps {
		ar := sched.AppResult{
			Name:      a.Name,
			Kind:      a.Kind,
			Offered:   a.Offered,
			Completed: a.Completed,
		}
		if a.Kind == workload.LatencyCritical {
			ar.Latency = a.Lat.Summarize()
			ar.Tput = stats.Rate{Count: a.Lat.Count(), Elapsed: int64(r.cfg.Duration)}
			ar.LBusyNs = r.lWork[a]
		} else {
			ar.BUsefulNs = r.funnel[a]
			ar.BWallNs = r.bWall[a]
			ar.Tput = stats.Rate{Count: uint64(ar.BUsefulNs), Elapsed: int64(r.cfg.Duration)}
			// Aggregate bandwidth: per-core demand × average cores held.
			ar.AvgBWGBs = a.AvgBW() * float64(r.bWall[a]) / float64(r.cfg.Duration)
		}
		res.Apps = append(res.Apps, ar)
	}
	sched.Normalize(&res, r.cfg)
	return res, nil
}
