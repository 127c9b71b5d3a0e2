// Package arachne implements the Arachne baseline (Qin et al., OSDI '18):
// core-aware two-level scheduling with a slow core arbiter and a
// dispatcher-centric runtime.
//
// The behaviours that matter for the paper's comparison (§6.2.1):
//
//   - a user-level core arbiter re-estimates each application's core need
//     on a coarse interval (~50 ms) and moves cores through the kernel
//     (~29 µs per move) — far too slow to track µs-scale bursts;
//   - each application funnels requests through a dispatcher thread that
//     creates a user thread per request (~1 µs), capping per-app
//     throughput around 1 Mops regardless of core count — the "sharp
//     decline (40% on average)" the paper reports;
//   - granted cores busy-spin when idle rather than being returned,
//     wasting cycles the B-app could use.
package arachne

import (
	"math"

	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with the Arachne model.
type Simulator struct{}

// Name returns "Arachne".
func (Simulator) Name() string { return "Arachne" }

// dispatchCost is the dispatcher's per-request user-thread creation cost.
const dispatchCost = 1 * sim.Microsecond

// workerPickup is a granted worker core's dequeue cost.
const workerPickup = 300 * sim.Nanosecond

// targetUtil is the arbiter's per-core utilisation target when sizing.
const targetUtil = 0.8

type lState struct {
	app *workload.App
	// dispatchQ → dispatcher (serial, 1 µs each) → readyQ → workers.
	dispatchBusy bool
	readyQ       []*workload.Request
	workers      int // granted worker cores (dispatcher core excluded)
	busyNs       sim.Duration
	windowStart  sim.Time
}

// core is a worker core; its sched.Core Owner is the app it is assigned
// to (nil = unassigned).
type core struct {
	sched.Core
	l    *lState // when owned by an L-app as a worker
	busy bool
}

type run struct {
	sched.Base
	cores []*core
	ls    []*lState
}

// Run executes the workload under the Arachne model.
func (s Simulator) Run(cfg sched.Config) (sched.Result, error) {
	r := &run{}
	if err := r.Init(cfg); err != nil {
		return sched.Result{}, err
	}
	cfg = r.Cfg // with defaults filled in
	for i := 0; i < cfg.Cores; i++ {
		c := &core{}
		r.AddCore(&c.Core)
		r.cores = append(r.cores, c)
	}
	for _, a := range r.LApps {
		r.ls = append(r.ls, &lState{app: a, workers: 1})
	}
	for _, l := range r.ls {
		ls := l
		if err := r.Arrivals(ls.app, 41, func(*workload.Request) { r.pumpDispatcher(ls) }); err != nil {
			return sched.Result{}, err
		}
	}
	r.Eng.At(0, r.rebalance)
	r.Every(sim.Time(cfg.Costs.ArachneInterval), cfg.Costs.ArachneInterval, r.rebalance)
	return r.Base.Run("Arachne", sched.Counters{Switches: "arachne.switches", Reallocs: "arachne.reallocs"}), nil
}

// pumpDispatcher runs the app's serial dispatcher: one request at a time,
// 1 µs of user-thread creation each, then hand-off to the ready queue.
func (r *run) pumpDispatcher(l *lState) {
	if l.dispatchBusy || len(l.app.Queue) == 0 || r.Eng.Now() >= r.EndAt {
		return
	}
	l.dispatchBusy = true
	req := l.app.Dequeue()
	// The serial dispatcher's user-thread creation gates the request.
	req.J.To(journey.SegGate, r.Eng.Now())
	r.Eng.After(dispatchCost, func() {
		l.dispatchBusy = false
		// Dispatched: the request now waits in the ready queue for a
		// granted worker core.
		req.J.To(journey.SegQueue, r.Eng.Now())
		l.readyQ = append(l.readyQ, req)
		r.feedWorkers(l)
		r.pumpDispatcher(l)
	})
}

// feedWorkers hands ready requests to idle granted worker cores.
func (r *run) feedWorkers(l *lState) {
	for _, c := range r.cores {
		if len(l.readyQ) == 0 {
			return
		}
		if c.l == l && !c.busy {
			req := l.readyQ[0]
			l.readyQ = l.readyQ[1:]
			r.serve(c, l, req)
		}
	}
}

// serve runs one request on a granted worker core.
func (r *run) serve(c *core, l *lState, req *workload.Request) {
	now := r.Eng.Now()
	req.Start = now
	req.J.To(journey.SegRun, now)
	c.busy = true
	c.SetAct(sched.ActApp)
	dur := workerPickup + sim.Duration(float64(req.Service)*r.BW.Inflation())
	l.busyNs += dur
	r.Eng.After(dur, func() {
		r.Complete(req, now)
		c.busy = false
		if r.Eng.Now() >= r.EndAt {
			return
		}
		if c.l != l {
			// The arbiter moved this core mid-request; follow its new
			// assignment.
			switch {
			case c.l != nil:
				c.SetAct(sched.ActRuntime)
				r.feedWorkers(c.l)
			case c.Owner != nil:
				c.StartB()
			default:
				c.SetAct(sched.ActIdle)
			}
			return
		}
		if len(l.readyQ) > 0 {
			next := l.readyQ[0]
			l.readyQ = l.readyQ[1:]
			r.serve(c, l, next)
			return
		}
		// Granted cores spin while idle — Arachne does not return them
		// until the arbiter revokes.
		c.SetAct(sched.ActRuntime)
	})
}

// rebalance is the arbiter: size each L-app's worker pool to its observed
// utilisation, give the rest to B-apps.
func (r *run) rebalance() {
	now := r.Eng.Now()
	if now >= r.EndAt {
		return
	}
	avail := len(r.cores)
	want := make(map[*lState]int)
	for _, l := range r.ls {
		window := now.Sub(l.windowStart)
		need := 1
		if window > 0 && l.busyNs > 0 {
			util := float64(l.busyNs) / float64(window)
			need = int(math.Ceil(util/targetUtil)) + 1
		}
		if need < 1 {
			need = 1
		}
		// +1 dispatcher core per app.
		if need+1 > avail {
			need = avail - 1
		}
		want[l] = need
		avail -= need + 1
		l.busyNs = 0
		l.windowStart = now
	}
	if avail < 0 {
		avail = 0
	}
	// Tear down everything and reassign (charging reallocation cost on
	// cores that change owner).
	idx := 0
	assign := func(owner *workload.App, l *lState, n int) {
		for i := 0; i < n && idx < len(r.cores); i++ {
			c := r.cores[idx]
			idx++
			changed := c.Owner != owner
			if changed {
				r.Reallocs++
				c.StopB() // leaving a B-app, if it had started
				c.Owner = owner
				c.l = l
				if !c.busy {
					// Charge the kernel move.
					c.SetAct(sched.ActKernel)
					cc := c
					r.Eng.After(r.Cfg.Costs.ArachneReallocCost, func() {
						if cc.l != nil {
							cc.SetAct(sched.ActRuntime)
							if cc.l != nil {
								r.feedWorkers(cc.l)
							}
						} else if cc.Owner != nil {
							cc.StartB()
						} else {
							cc.SetAct(sched.ActIdle)
						}
					})
				}
			}
		}
	}
	for _, l := range r.ls {
		l.workers = want[l]
		assign(l.app, l, want[l]+1) // workers + dispatcher core
	}
	// Remaining cores to B-apps round-robin (first B gets them all when
	// single).
	rem := len(r.cores) - idx
	if len(r.BApps) > 0 && rem > 0 {
		per := rem / len(r.BApps)
		extra := rem % len(r.BApps)
		for i, b := range r.BApps {
			n := per
			if i < extra {
				n++
			}
			assign(b, nil, n)
		}
	} else {
		for ; idx < len(r.cores); idx++ {
			c := r.cores[idx]
			c.StopB()
			c.Owner = nil
			c.l = nil
			c.SetAct(sched.ActIdle)
		}
	}
}
