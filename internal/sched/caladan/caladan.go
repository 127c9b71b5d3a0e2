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
	"vessel/internal/stats"
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

type core struct {
	id    int
	mode  coreMode
	owner *workload.App // L or B app owning the core
	act   sched.Activity
	lastT sim.Time
	// grantedAt lets the victim-selection prefer the longest holder.
	grantedAt sim.Time
	pollEnd   sim.Event
	bStart    sim.Time
	// grantD remembers the kernel cost of the grant that just handed
	// this core over, so the first request served afterwards can
	// attribute that crossing to its journey's gate segment.
	grantD sim.Duration
}

type run struct {
	cfg   sched.Config
	v     Simulator
	eng   *sim.Engine
	rng   *sim.RNG
	acct  sched.Accountant
	bw    *sched.BW
	cores []*core
	lApps []*workload.App
	bApps []*workload.App
	endAt sim.Time

	funnel map[*workload.App]sim.Duration
	bWall  map[*workload.App]sim.Duration
	lWork  map[*workload.App]sim.Duration // per-L-app service time delivered
	bwCap  float64
	// bwSampled is the IOKernel's view of bandwidth demand, refreshed
	// only at its 10 µs decision ticks. Grant decisions between ticks
	// act on this stale sample — the control-loop coarseness that makes
	// Caladan's regulation overshoot (§6.3.4).
	bwSampled float64

	switches, preempts, reallocs uint64
}

// Run executes the workload under Caladan's policy.
func (s Simulator) Run(cfg sched.Config) (sched.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sched.Result{}, err
	}
	r := &run{
		cfg:    cfg,
		v:      s,
		eng:    sim.NewEngine(),
		rng:    sim.NewRNG(cfg.Seed),
		bw:     sched.NewBW(cfg.Costs.MemBWTotal),
		funnel: make(map[*workload.App]sim.Duration),
		bWall:  make(map[*workload.App]sim.Duration),
		lWork:  make(map[*workload.App]sim.Duration),
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
		r.cores = append(r.cores, &core{id: i, mode: modeFree, act: sched.ActIdle})
	}
	// Every packet traverses the IOKernel before it reaches an
	// application queue — the single-server control plane whose
	// saturation caps Caladan at ~34 cores (Figure 12).
	ctrl := cfg.Costs.CaladanCtrlFor(cfg.Cores)
	var ctrlFree sim.Time
	for _, a := range r.lApps {
		app := a
		if err := app.GenerateArrivals(r.eng, r.rng.Fork(uint64(len(app.Name))+13), r.endAt, func(req *workload.Request) {
			req.J = cfg.Journey.Mint(app.Name, req.Arrive)
			if ctrl <= 0 {
				r.onArrival(app)
				return
			}
			stolen := app.StealNewest()
			now := r.eng.Now()
			// The packet is inside the IOKernel until the control-plane
			// server forwards it: dataplane time on the journey.
			req.J.To(journey.SegData, now)
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
				req.J.To(journey.SegQueue, r.eng.Now())
				r.onArrival(app)
			})
		}); err != nil {
			return sched.Result{}, err
		}
	}
	// IOKernel decision loop.
	var tick func()
	tick = func() {
		r.iokernel()
		if r.eng.Now() < r.endAt {
			r.eng.After(r.cfg.Costs.CaladanReallocMs, tick)
		}
	}
	r.eng.At(0, tick)
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

// onArrival: a polling core of the same app picks the request up
// immediately; otherwise the request waits for a completion or for the
// IOKernel's next decision tick.
func (r *run) onArrival(app *workload.App) {
	for _, c := range r.cores {
		if c.mode == modePollL && c.owner == app {
			r.eng.Cancel(c.pollEnd)
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
	now := r.eng.Now()
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
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(req.Service)*r.bw.Inflation()) + r.bw.StallNoise(r.rng)
	r.eng.After(dur, func() {
		req.Done = r.eng.Now()
		req.J.Finish(req.Done)
		app.Complete(req, sim.Time(r.cfg.Warmup))
		r.lWork[app] += r.acct.Clip(now, r.eng.Now())
		if r.eng.Now() >= r.endAt {
			return
		}
		r.serveL(c, app)
	})
}

// startPolling begins the 2 µs steal window: the core spins inside its app
// looking for work before giving the core back (§4.5).
func (r *run) startPolling(c *core, app *workload.App) {
	c.mode = modePollL
	r.setAct(c, sched.ActRuntime)
	c.pollEnd = r.eng.After(r.cfg.Costs.CaladanStealWin, func() {
		c.pollEnd = sim.Event{}
		r.parkCore(c)
	})
}

// parkCore executes the voluntary yield: a kernel crossing, after which the
// core belongs to the IOKernel and is immediately handed to a B-app if one
// wants it.
func (r *run) parkCore(c *core) {
	c.mode = modeTransition
	c.owner = nil
	r.setAct(c, sched.ActKernel)
	r.switches++
	r.eng.After(r.cfg.Costs.CaladanParkPath, func() {
		c.mode = modeFree
		r.setAct(c, sched.ActIdle)
		r.grantFreeCore(c)
	})
}

// grantFreeCore reacts to a core becoming free: the IOKernel notices free
// cores within its polling loop (only *reallocation of busy cores* is
// limited to the 10 µs interval), so an L-app past its Delay Range
// threshold gets it immediately; otherwise a B-app harvests it.
func (r *run) grantFreeCore(c *core) {
	if c.mode != modeFree || r.eng.Now() >= r.endAt {
		return
	}
	thr := r.v.grantThreshold()
	now := r.eng.Now()
	var best *workload.App
	var bestDelay sim.Duration
	for _, app := range r.lApps {
		if d := app.QueueDelay(now); d >= thr && d > bestDelay {
			best = app
			bestDelay = d
		}
	}
	if best != nil {
		r.transition(c, best, r.cfg.Costs.CaladanParkPath)
		return
	}
	r.grantFreeCoreToB(c)
}

// grantFreeCoreToB hands a free core to a best-effort app (respecting the
// bandwidth budget).
func (r *run) grantFreeCoreToB(c *core) {
	if c.mode != modeFree || r.eng.Now() >= r.endAt {
		return
	}
	for _, b := range r.bApps {
		if r.bwCap > 0 && r.bwSampled+b.AvgBW() > r.bwCap {
			continue
		}
		c.mode = modeRunB
		c.owner = b
		c.grantedAt = r.eng.Now()
		c.bStart = r.eng.Now()
		r.bw.Add(r.eng.Now(), b.AvgBW())
		r.setAct(c, sched.ActApp)
		return
	}
}

// stopB accrues and removes the B occupancy of a core.
func (r *run) stopB(c *core) {
	b := c.owner
	now := r.eng.Now()
	useful := r.acct.Clip(c.bStart, now)
	if useful > 0 {
		r.funnel[b] += sim.Duration(float64(useful) / r.bw.Inflation())
		r.bWall[b] += useful
	}
	r.bw.Remove(now, b.AvgBW())
	c.owner = nil
}

// iokernel is the 10 µs decision loop: grant cores to L-apps whose queueing
// delay exceeds the Delay Range threshold, preferring free cores, then
// B-cores (preemption), then — for dense L-on-L colocation — cores of
// L-apps holding more than their share.
func (r *run) iokernel() {
	now := r.eng.Now()
	if now >= r.endAt {
		return
	}
	// Refresh the bandwidth sample the inter-tick grant path uses.
	r.bwSampled = r.bw.Demand()
	thr := r.v.grantThreshold()
	for _, app := range r.lApps {
		if app.QueueDelay(now) < thr {
			continue
		}
		// Skip if the app already has a polling core about to pick the
		// work up (it will, at the poll boundary).
		polling := false
		for _, c := range r.cores {
			if c.owner == app && c.mode == modePollL {
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
	if r.bwCap > 0 {
		for r.bw.Demand() > r.bwCap {
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
			r.transition(c, app, r.cfg.Costs.CaladanParkPath)
			return
		}
	}
	// Preempt a best-effort core: the full Figure 3 path.
	if victim := r.pickBVictim(); victim != nil {
		r.stopB(victim)
		r.transition(victim, app, r.cfg.Costs.CaladanReallocTotal())
		r.preempts++
		return
	}
	// Dense colocation: preempt another L-app's core. Choose the app
	// holding the most cores; prefer a polling core, else a serving one.
	var victim *core
	bestCount := 0
	counts := make(map[*workload.App]int)
	for _, c := range r.cores {
		if c.owner != nil && c.owner.Kind == workload.LatencyCritical {
			counts[c.owner]++
		}
	}
	for _, c := range r.cores {
		if c.owner == nil || c.owner == app || c.owner.Kind != workload.LatencyCritical {
			continue
		}
		if c.mode != modePollL && c.mode != modeServeL {
			continue
		}
		n := counts[c.owner]
		better := n > bestCount || (n == bestCount && victim != nil && victim.mode == modeServeL && c.mode == modePollL)
		if victim == nil || better {
			victim = c
			bestCount = n
		}
	}
	if victim == nil {
		return
	}
	r.eng.Cancel(victim.pollEnd)
	victim.pollEnd = sim.Event{}
	if victim.mode == modeServeL {
		// The in-flight request finishes on the new owner's dime in
		// real Caladan (the preempted thread is rescheduled); model the
		// preemption as taking effect after the current request, which
		// the completion handler does naturally — so just mark: here we
		// only preempt polling cores to keep request execution simple.
		return
	}
	r.transition(victim, app, r.cfg.Costs.CaladanReallocTotal())
	r.preempts++
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
	r.stopB(c)
	c.mode = modeTransition
	r.setAct(c, sched.ActKernel)
	r.preempts++
	r.switches++
	r.eng.After(r.cfg.Costs.CaladanParkPath, func() {
		c.mode = modeFree
		r.setAct(c, sched.ActIdle)
	})
}

// transition moves a core to an L-app with the given kernel cost.
func (r *run) transition(c *core, app *workload.App, cost sim.Duration) {
	c.mode = modeTransition
	c.owner = app
	c.grantedAt = r.eng.Now()
	r.setAct(c, sched.ActKernel)
	r.switches++
	r.reallocs++
	r.eng.After(cost, func() {
		if r.eng.Now() >= r.endAt {
			return
		}
		c.grantD = cost
		r.serveL(c, app)
	})
}

// collect finalises accounting.
func (r *run) collect() (sched.Result, error) {
	for _, c := range r.cores {
		// Close the span through setAct (before stopB clears the owner) so
		// it keeps its occupant label and reaches the obs layer.
		r.setAct(c, c.act)
		if c.mode == modeRunB {
			r.stopB(c)
		}
	}
	if o := r.cfg.Obs; o != nil {
		o.Reg().Add("caladan.switches", r.switches)
		o.Reg().Add("caladan.preempts", r.preempts)
		o.Reg().Add("caladan.reallocs", r.reallocs)
	}
	res := sched.Result{
		Scheduler:     r.v.Name(),
		Cores:         r.cfg.Cores,
		Measured:      r.cfg.Duration,
		Cycles:        r.acct.Breakdown,
		Switches:      r.switches,
		Preemptions:   r.preempts,
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
