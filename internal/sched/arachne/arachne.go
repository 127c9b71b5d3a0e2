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
	"vessel/internal/stats"
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

type core struct {
	id    int
	owner *workload.App // nil = unassigned
	l     *lState       // when owned by an L-app as a worker
	busy  bool
	act   sched.Activity
	lastT sim.Time
	bFrom sim.Time
}

type run struct {
	cfg   sched.Config
	eng   *sim.Engine
	rng   *sim.RNG
	acct  sched.Accountant
	bw    *sched.BW
	cores []*core
	ls    []*lState
	bApps []*workload.App
	endAt sim.Time

	funnel map[*workload.App]sim.Duration
	bWall  map[*workload.App]sim.Duration
	lWork  map[*workload.App]sim.Duration

	switches, reallocs uint64
}

// Run executes the workload under the Arachne model.
func (s Simulator) Run(cfg sched.Config) (sched.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sched.Result{}, err
	}
	r := &run{
		cfg:    cfg,
		eng:    sim.NewEngine(),
		rng:    sim.NewRNG(cfg.Seed),
		bw:     sched.NewBW(cfg.Costs.MemBWTotal),
		funnel: make(map[*workload.App]sim.Duration),
		bWall:  make(map[*workload.App]sim.Duration),
		lWork:  make(map[*workload.App]sim.Duration),
	}
	r.endAt = sim.Time(cfg.Warmup + cfg.Duration)
	r.acct = sched.Accountant{From: sim.Time(cfg.Warmup), To: r.endAt, Obs: cfg.Obs, Journey: cfg.Journey}
	for i := 0; i < cfg.Cores; i++ {
		r.cores = append(r.cores, &core{id: i, act: sched.ActIdle})
	}
	for _, a := range cfg.Apps {
		if a.Kind == workload.LatencyCritical {
			r.ls = append(r.ls, &lState{app: a, workers: 1})
		} else {
			r.bApps = append(r.bApps, a)
		}
	}
	for _, l := range r.ls {
		ls := l
		if err := ls.app.GenerateArrivals(r.eng, r.rng.Fork(uint64(len(ls.app.Name))+41), r.endAt, func(req *workload.Request) {
			req.J = cfg.Journey.Mint(ls.app.Name, req.Arrive)
			r.pumpDispatcher(ls)
		}); err != nil {
			return sched.Result{}, err
		}
	}
	r.eng.At(0, func() { r.rebalance() })
	var arbiter func()
	arbiter = func() {
		r.rebalance()
		if r.eng.Now() < r.endAt {
			r.eng.After(r.cfg.Costs.ArachneInterval, arbiter)
		}
	}
	r.eng.After(r.cfg.Costs.ArachneInterval, arbiter)
	r.eng.At(sim.Time(cfg.Warmup), func() { r.bw.ResetAvg(r.eng.Now()) })
	r.eng.Run(r.endAt)
	return r.collect()
}

func (r *run) setAct(c *core, act sched.Activity) {
	now := r.eng.Now()
	label := ""
	if c.owner != nil {
		label = c.owner.Name
	}
	r.acct.AccrueCore(c.id, c.act, c.lastT, now, label)
	c.act = act
	c.lastT = now
}

// pumpDispatcher runs the app's serial dispatcher: one request at a time,
// 1 µs of user-thread creation each, then hand-off to the ready queue.
func (r *run) pumpDispatcher(l *lState) {
	if l.dispatchBusy || len(l.app.Queue) == 0 || r.eng.Now() >= r.endAt {
		return
	}
	l.dispatchBusy = true
	req := l.app.Dequeue()
	// The serial dispatcher's user-thread creation gates the request.
	req.J.To(journey.SegGate, r.eng.Now())
	r.eng.After(dispatchCost, func() {
		l.dispatchBusy = false
		// Dispatched: the request now waits in the ready queue for a
		// granted worker core.
		req.J.To(journey.SegQueue, r.eng.Now())
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
	now := r.eng.Now()
	req.Start = now
	req.J.To(journey.SegRun, now)
	c.busy = true
	r.setAct(c, sched.ActApp)
	dur := workerPickup + sim.Duration(float64(req.Service)*r.bw.Inflation())
	l.busyNs += dur
	r.eng.After(dur, func() {
		req.Done = r.eng.Now()
		req.J.Finish(req.Done)
		l.app.Complete(req, sim.Time(r.cfg.Warmup))
		r.lWork[l.app] += r.acct.Clip(now, r.eng.Now())
		c.busy = false
		if r.eng.Now() >= r.endAt {
			return
		}
		if c.l != l {
			// The arbiter moved this core mid-request; follow its new
			// assignment.
			switch {
			case c.l != nil:
				r.setAct(c, sched.ActRuntime)
				r.feedWorkers(c.l)
			case c.owner != nil:
				r.startB(c)
			default:
				r.setAct(c, sched.ActIdle)
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
		r.setAct(c, sched.ActRuntime)
	})
}

// rebalance is the arbiter: size each L-app's worker pool to its observed
// utilisation, give the rest to B-apps.
func (r *run) rebalance() {
	now := r.eng.Now()
	if now >= r.endAt {
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
			changed := c.owner != owner
			if changed {
				r.reallocs++
				if c.l == nil && c.owner != nil {
					// leaving a B-app
					r.stopB(c)
				}
				c.owner = owner
				c.l = l
				if !c.busy {
					// Charge the kernel move.
					r.setAct(c, sched.ActKernel)
					cc := c
					r.eng.After(r.cfg.Costs.ArachneReallocCost, func() {
						if cc.l != nil {
							r.setAct(cc, sched.ActRuntime)
							if cc.l != nil {
								r.feedWorkers(cc.l)
							}
						} else if cc.owner != nil {
							r.startB(cc)
						} else {
							r.setAct(cc, sched.ActIdle)
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
	if len(r.bApps) > 0 && rem > 0 {
		per := rem / len(r.bApps)
		extra := rem % len(r.bApps)
		for i, b := range r.bApps {
			n := per
			if i < extra {
				n++
			}
			assign(b, nil, n)
		}
	} else {
		for ; idx < len(r.cores); idx++ {
			c := r.cores[idx]
			if c.owner != nil && c.l == nil {
				r.stopB(c)
			}
			c.owner = nil
			c.l = nil
			r.setAct(c, sched.ActIdle)
		}
	}
}

// startB begins best-effort occupancy on a core.
func (r *run) startB(c *core) {
	if c.owner == nil || c.l != nil {
		return
	}
	c.bFrom = r.eng.Now()
	r.bw.Add(r.eng.Now(), c.owner.AvgBW())
	r.setAct(c, sched.ActApp)
}

// stopB ends best-effort occupancy, accruing useful time.
func (r *run) stopB(c *core) {
	if c.owner == nil || c.l != nil {
		return
	}
	now := r.eng.Now()
	useful := r.acct.Clip(c.bFrom, now)
	if useful > 0 {
		r.funnel[c.owner] += sim.Duration(float64(useful) / r.bw.Inflation())
		r.bWall[c.owner] += useful
	}
	r.bw.Remove(now, c.owner.AvgBW())
}

// collect finalises accounting.
func (r *run) collect() (sched.Result, error) {
	for _, c := range r.cores {
		if c.owner != nil && c.l == nil {
			r.stopB(c)
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, c.act)
	}
	if o := r.cfg.Obs; o != nil {
		o.Reg().Add("arachne.switches", r.switches)
		o.Reg().Add("arachne.reallocs", r.reallocs)
	}
	res := sched.Result{
		Scheduler:     "Arachne",
		Cores:         r.cfg.Cores,
		Measured:      r.cfg.Duration,
		Cycles:        r.acct.Breakdown,
		Switches:      r.switches,
		Reallocations: r.reallocs,
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
