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
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with VESSEL's one-level policy.
type Simulator struct{}

// Name returns "VESSEL".
func (Simulator) Name() string { return "VESSEL" }

// coreState is a worker core in the layer-2 model. Its sched.Core Owner
// is the L or B app whose thread holds it.
type coreState struct {
	sched.Core
	// fifo is the per-core FIFO of resident L-app worker threads,
	// rotated on every park (§4.5).
	fifo []*workload.App
	busy bool // an event will fire for this core
	// In-flight request state, for §4.4 priority preemption.
	curReq    *workload.Request
	reqEv     sim.Event
	reqFrom   sim.Time
	reqInflat float64
	// finish is the core's request-completion callback, bound once so
	// scheduling a completion allocates nothing.
	finish func()
}

// runningL returns the L-app whose thread holds the core, or nil.
func (c *coreState) runningL() *workload.App {
	if c.RunningB() {
		return nil
	}
	return c.Owner
}

type vesselRun struct {
	sched.Base
	cores    []*coreState
	reacting []bool          // single-flight preemption chains, by App.Index
	beQ      []*workload.App // global BE queue (entries = schedulable B threads)
}

// Run executes the configured workload under VESSEL's scheduler.
func (Simulator) Run(cfg sched.Config) (sched.Result, error) {
	r := &vesselRun{}
	if err := r.Init(cfg); err != nil {
		return sched.Result{}, err
	}
	cfg = r.Cfg // with defaults filled in
	r.reacting = make([]bool, len(cfg.Apps))
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{}
		r.AddCore(&c.Core)
		c.finish = func() { r.finishRequest(c) }
		// Every L-app has a worker thread resident on every core.
		c.fifo = append(c.fifo, r.LApps...)
		r.cores = append(r.cores, c)
	}
	// One BE thread per core per B-app in the global queue.
	for i := 0; i < cfg.Cores; i++ {
		r.beQ = append(r.beQ, r.BApps...)
	}
	// Arrival processes. Every request's dispatch signal crosses the
	// domain scheduler — a single FIFO control-plane server whose
	// saturation caps core scalability (Figure 12).
	ctrlCost := cfg.Costs.VesselCtrlFor(cfg.Cores)
	ctrl := sched.NewCtrlPlane(r.Eng, ctrlCost)
	for _, a := range r.LApps {
		app := a
		lane := ctrl.Lane(app, func(*workload.Request) { r.onArrival(app) })
		// The control-plane dispatch delay counts as queueing (the
		// request is waiting for the scheduler to learn about it).
		if err := r.Arrivals(app, 7, func(*workload.Request) {
			if ctrlCost <= 0 {
				r.onArrival(app)
				return
			}
			lane.Submit()
		}); err != nil {
			return sched.Result{}, err
		}
	}
	// Initial fill: give idle cores to BE threads.
	r.Eng.At(0, func() {
		for _, c := range r.cores {
			if !c.busy {
				r.serveNext(c)
			}
		}
	})
	// Bandwidth regulation scan (µs-scale, §6.3.4). Runs only with a
	// configured budget.
	if r.BWCap > 0 {
		r.Every(0, 1*sim.Microsecond, r.regulateBW)
	}
	return r.Base.Run("VESSEL", sched.Counters{
		Switches: "vessel.switches", Preempts: "vessel.preempts", Reallocs: "vessel.reallocs",
	}), nil
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
		if !c.busy && c.Owner == nil {
			r.wakeIdle(c, app)
			return
		}
	}
	if !r.reacting[app.Index] {
		r.reacting[app.Index] = true
		r.armReaction(app)
	}
}

// armReaction schedules the scheduler's next look at app's queue: one scan
// interval plus the Uintr delivery it would take to act.
func (r *vesselRun) armReaction(app *workload.App) {
	cm := r.Cfg.Costs
	r.Eng.After(cm.VesselSchedScan+cm.UintrDeliver, func() {
		now := r.Eng.Now()
		if len(app.Queue) == 0 || now >= r.EndAt {
			r.reacting[app.Index] = false
			return
		}
		if app.QueueDelay(now) >= preemptDelayThreshold {
			preempted := false
			for _, c := range r.cores {
				if c.RunningB() {
					r.preemptB(c)
					preempted = true
					break
				}
			}
			// No best-effort core to take: preempt a core serving a
			// strictly lower-priority L-app mid-request (§4.4).
			if !preempted {
				for _, c := range r.cores {
					if l := c.runningL(); c.curReq != nil && l != nil && l.Priority < app.Priority {
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
	cm := r.Cfg.Costs
	c.busy = true
	c.SetAct(sched.ActSwitch)
	r.Switches++
	r.Eng.After(cm.UmwaitWake+cm.VesselParkSwitch, func() {
		c.busy = false
		r.serveNext(c)
	})
}

// preemptB stops the BE thread on c (Uintr handler → gate → switch) and
// lets the core pick up L work.
func (r *vesselRun) preemptB(c *coreState) {
	cm := r.Cfg.Costs
	if !c.RunningB() {
		return
	}
	b := c.Owner
	r.Preempts++
	r.Reallocs++
	now := r.Eng.Now()
	// The preemption arrived by user interrupt: the reaction timer included
	// one UintrDeliver of flight, so the send→delivery window ends now.
	if o := r.Cfg.Obs; o != nil {
		o.Span(c.ID, now.Add(-cm.UintrDeliver), now, obs.CatUintr, b.Name)
		o.Reg().Inc("vessel.uintr.preempt")
	}
	c.StopB()
	c.Owner = nil
	// Preempted BE threads go back to the global BE queue (§4.5).
	r.beQ = append(r.beQ, b)
	c.busy = true
	c.SetAct(sched.ActSwitch)
	r.Switches++
	r.Eng.After(cm.VesselPreemptSwitch, func() {
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
	now := r.Eng.Now()
	if now >= r.EndAt {
		c.SetAct(sched.ActIdle)
		return
	}
	// Continue the current L app run-to-completion with no switch.
	if l := c.runningL(); l != nil {
		if req := l.Dequeue(); req != nil {
			r.startRequest(c, l, req)
			return
		}
		// Parks: rotate the FIFO so siblings get the core next time.
		c.Owner = nil
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
				cm := r.Cfg.Costs
				c.busy = true
				c.SetAct(sched.ActSwitch)
				r.Switches++
				r.Eng.After(cm.VesselParkSwitch, func() {
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
		if r.BWCap > 0 && r.BW.Demand()+b.AvgBW() > r.BWCap {
			continue
		}
		r.beQ = append(r.beQ[:i], r.beQ[i+1:]...)
		r.startB(c, b)
		return
	}
	c.SetAct(sched.ActIdle)
}

// startRequest runs one L request (or its preempted remainder)
// run-to-completion.
func (r *vesselRun) startRequest(c *coreState, app *workload.App, req *workload.Request) {
	now := r.Eng.Now()
	if req.Start == 0 {
		req.Start = now
	}
	if req.Remaining <= 0 {
		req.Remaining = req.Service
	}
	c.Owner = app
	c.busy = true
	c.curReq = req
	c.reqFrom = now
	c.reqInflat = r.BW.Inflation()
	req.J.To(journey.SegRun, now)
	c.SetAct(sched.ActApp)
	dur := sim.Duration(float64(req.Remaining)*c.reqInflat) + r.BW.StallNoise(r.RNG)
	c.reqEv = r.Eng.After(dur, c.finish)
}

// finishRequest completes the core's in-flight request c.curReq, started
// at c.reqFrom.
func (r *vesselRun) finishRequest(c *coreState) {
	req := c.curReq
	c.reqEv = sim.Event{}
	c.curReq = nil
	req.Remaining = 0
	r.Complete(req, c.reqFrom)
	c.busy = false
	r.serveNext(c)
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
	now := r.Eng.Now()
	r.Eng.Cancel(c.reqEv)
	c.reqEv = sim.Event{}
	c.curReq = nil
	served := sim.Duration(float64(now.Sub(c.reqFrom)) / c.reqInflat)
	if served > req.Remaining {
		served = req.Remaining
	}
	req.Remaining -= served
	req.App.RequeueFront(req)
	req.J.To(journey.SegQueue, now)
	c.Owner = nil
	r.Preempts++
	c.busy = true
	c.SetAct(sched.ActSwitch)
	r.Switches++
	r.Eng.After(r.Cfg.Costs.VesselPreemptSwitch, func() {
		c.busy = false
		r.serveNext(c)
	})
}

// startB puts a BE thread on the core; it runs until preempted.
func (r *vesselRun) startB(c *coreState, b *workload.App) {
	cm := r.Cfg.Costs
	c.busy = true
	c.SetAct(sched.ActSwitch)
	r.Switches++
	r.Reallocs++
	r.Eng.After(cm.VesselParkSwitch, func() {
		c.busy = false
		c.Owner = b
		c.StartB()
	})
}

// regulateBW enforces the B-app bandwidth budget at scan granularity:
// preempt BE cores while demand exceeds the budget.
func (r *vesselRun) regulateBW() {
	for r.BW.Demand() > r.BWCap {
		var victim *coreState
		for _, c := range r.cores {
			if c.RunningB() {
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
		if !c.busy && c.Owner == nil && len(r.beQ) > 0 {
			r.serveNext(c)
		}
	}
}
