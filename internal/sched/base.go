package sched

import (
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/workload"
)

// Base is the run skeleton every layer-2 scheduler embeds in its run
// state. It owns what all four schedulers must charge the same way: core
// time per activity, best-effort (B) useful and wall time, latency-critical
// (L) busy time and completions, and the final Result. The embedding
// scheduler keeps only its policy: queues, grants and preemption.
type Base struct {
	Cfg   Config
	Eng   *sim.Engine
	RNG   *sim.RNG
	BW    *BW
	EndAt sim.Time
	LApps []*workload.App
	BApps []*workload.App
	// BWCap is the B-apps' bandwidth budget in GB/s (0 = unlimited).
	BWCap float64

	// Switches counts context switches of any kind, Preempts the
	// involuntary subset, Reallocs cross-app core movements.
	Switches, Preempts, Reallocs uint64

	acct  Accountant
	cores []*Core
	// Per-app ledgers, indexed by App.Index: B useful time (deflated by
	// memory contention), B wall time on cores, and L core time spent on
	// requests.
	bUseful, bWall, lBusy []sim.Duration
}

// Counters names the obs registry counters a scheduler reports its
// tallies under at the end of a run. An empty name is not reported.
type Counters struct {
	Switches, Preempts, Reallocs string
}

// Init validates cfg and sets up the run: engine, RNG, bandwidth tracker,
// measurement window, the apps' indexes and the L/B app split.
func (b *Base) Init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	b.Cfg = cfg
	b.Eng = sim.NewEngine()
	b.RNG = sim.NewRNG(cfg.Seed)
	b.BW = NewBW(cfg.Costs.MemBWTotal)
	b.EndAt = sim.Time(cfg.Warmup + cfg.Duration)
	b.acct = Accountant{From: sim.Time(cfg.Warmup), To: b.EndAt, Obs: cfg.Obs, Journey: cfg.Journey}
	if cfg.BWTargetFrac > 0 {
		b.BWCap = cfg.BWTargetFrac * cfg.Costs.MemBWTotal
	}
	for i, a := range cfg.Apps {
		a.Index = i
		if a.Kind == workload.LatencyCritical {
			b.LApps = append(b.LApps, a)
		} else {
			b.BApps = append(b.BApps, a)
		}
	}
	b.bUseful = make([]sim.Duration, len(cfg.Apps))
	b.bWall = make([]sim.Duration, len(cfg.Apps))
	b.lBusy = make([]sim.Duration, len(cfg.Apps))
	return nil
}

// AddCore registers the next worker core, numbering it in call order. The
// run closes its cores out in the same order.
func (b *Base) AddCore(c *Core) {
	c.ID = len(b.cores)
	c.base = b
	b.cores = append(b.cores, c)
}

// Arrivals starts app's arrival process. Each arrival is minted its
// journey and handed to onArrival. The process forks the run's RNG with
// len(app.Name)+salt; each scheduler keeps its own salt.
func (b *Base) Arrivals(app *workload.App, salt uint64, onArrival func(*workload.Request)) error {
	j := b.Cfg.Journey
	return app.GenerateArrivals(b.Eng, b.RNG.Fork(uint64(len(app.Name))+salt), b.EndAt, func(req *workload.Request) {
		req.J = j.Mint(app.Name, req.Arrive)
		onArrival(req)
	})
}

// Every runs fn at first and then every period until the window ends.
func (b *Base) Every(first sim.Time, period sim.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if b.Eng.Now() < b.EndAt {
			b.Eng.After(period, tick)
		}
	}
	b.Eng.At(first, tick)
}

// Complete finishes an L request now: it stamps and records the request
// and charges the app the core time since from, the request's service
// start on this core.
func (b *Base) Complete(req *workload.Request, from sim.Time) {
	now := b.Eng.Now()
	req.Done = now
	req.J.Finish(now)
	req.App.Complete(req, sim.Time(b.Cfg.Warmup))
	b.lBusy[req.App.Index] += b.acct.Clip(from, now)
}

// Run restarts the bandwidth average at the end of warmup, runs the
// engine to the end of the window and returns the settled result.
func (b *Base) Run(name string, counters Counters) Result {
	b.Eng.At(sim.Time(b.Cfg.Warmup), func() { b.BW.ResetAvg(b.Eng.Now()) })
	b.Eng.Run(b.EndAt)
	return b.finish(name, counters)
}

// finish closes out every core, reports the counters and builds the
// result. Open B occupancies are deflated by one inflation snapshot, so
// the ledgers do not depend on the order the cores are closed in.
func (b *Base) finish(name string, counters Counters) Result {
	now, infl := b.Eng.Now(), b.BW.Inflation()
	for _, c := range b.cores {
		if c.bOpen {
			b.accrueB(c, now, infl)
		}
		// Close the span through SetAct so it keeps its occupant label.
		c.SetAct(c.act)
	}
	if reg := b.Cfg.Obs.Reg(); reg != nil {
		names := [...]string{counters.Switches, counters.Preempts, counters.Reallocs}
		for i, n := range [...]uint64{b.Switches, b.Preempts, b.Reallocs} {
			if names[i] != "" {
				reg.Add(names[i], n)
			}
		}
	}
	res := Result{
		Scheduler:     name,
		Cores:         b.Cfg.Cores,
		Measured:      b.Cfg.Duration,
		Cycles:        b.acct.Breakdown,
		Switches:      b.Switches,
		Preemptions:   b.Preempts,
		Reallocations: b.Reallocs,
	}
	elapsed := int64(b.Cfg.Duration)
	for _, a := range b.Cfg.Apps {
		ar := AppResult{Name: a.Name, Kind: a.Kind, Offered: a.Offered, Completed: a.Completed}
		if a.Kind == workload.LatencyCritical {
			ar.Latency = a.Lat.Summarize()
			ar.Tput = stats.Rate{Count: a.Lat.Count(), Elapsed: elapsed}
			ar.LBusyNs = b.lBusy[a.Index]
		} else {
			ar.BUsefulNs = b.bUseful[a.Index]
			ar.BWallNs = b.bWall[a.Index]
			ar.Tput = stats.Rate{Count: uint64(ar.BUsefulNs), Elapsed: elapsed}
			// Aggregate bandwidth: per-core demand × average cores held.
			ar.AvgBWGBs = a.AvgBW() * float64(ar.BWallNs) / float64(b.Cfg.Duration)
		}
		res.Apps = append(res.Apps, ar)
	}
	Normalize(&res, b.Cfg)
	return res
}

// accrueB charges c's open B occupancy up to now to its owner: wall time
// as held, useful time deflated by the memory-contention factor infl.
func (b *Base) accrueB(c *Core, now sim.Time, infl float64) {
	useful := b.acct.Clip(c.bFrom, now)
	if useful > 0 {
		b.bUseful[c.Owner.Index] += sim.Duration(float64(useful) / infl)
		b.bWall[c.Owner.Index] += useful
	}
}

// Core is the skeleton's part of one worker core: its accounting activity
// and any B occupancy open on it. Schedulers embed it in their core state
// and register it with Base.AddCore.
type Core struct {
	ID int
	// Owner is the app whose thread holds the core. It labels the core's
	// accounting spans and is the app a B occupancy is charged to.
	Owner *workload.App

	base  *Base
	act   Activity
	lastT sim.Time
	bFrom sim.Time
	bOpen bool
}

// SetAct charges the core's time since its last transition to its current
// activity and switches it to act.
func (c *Core) SetAct(act Activity) {
	now := c.base.Eng.Now()
	label := ""
	if c.Owner != nil {
		label = c.Owner.Name
	}
	c.base.acct.AccrueCore(c.ID, c.act, c.lastT, now, label)
	c.act = act
	c.lastT = now
}

// StartB opens a B occupancy of the core by its Owner: the app's
// bandwidth demand starts now and the core runs application code.
func (c *Core) StartB() {
	now := c.base.Eng.Now()
	c.bFrom = now
	c.bOpen = true
	c.base.BW.Add(now, c.Owner.AvgBW())
	c.SetAct(ActApp)
}

// StopB closes the core's B occupancy, if one is open: it charges the
// occupancy at the current inflation and releases the bandwidth demand.
func (c *Core) StopB() {
	if !c.bOpen {
		return
	}
	b := c.base
	now := b.Eng.Now()
	b.accrueB(c, now, b.BW.Inflation())
	b.BW.Remove(now, c.Owner.AvgBW())
	c.bOpen = false
}

// RunningB reports whether a B occupancy is open on the core.
func (c *Core) RunningB() bool { return c.bOpen }
