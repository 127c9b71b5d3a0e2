package vessel

// This file is the containment/chaos side of the manager (the tentpole of
// the robustness milestone): supervised uProcesses restarted with capped
// exponential backoff in virtual time, and a chaos run loop that drives
// every core under time slicing while a faultinject.Injector attacks the
// domain. The invariants it upholds:
//
//   - a crashing uProcess is killed, its region and protection key are
//     reclaimed (only once no core still runs it), and it is restarted
//     after a backoff — so a crash loop costs bounded pkeys and bounded
//     core time;
//   - an uncontained fault (trusted-runtime crash) fail-stops exactly one
//     core, and the rest of the domain keeps running;
//   - with identical seeds and plans, the whole run — injections, kills,
//     restarts, reclaims — replays identically.

import (
	"fmt"

	"vessel/internal/faultinject"
	"vessel/internal/obs"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	"vessel/internal/uproc"
)

// RestartPolicy caps how eagerly a supervised uProcess is relaunched after
// a crash.
type RestartPolicy struct {
	// MaxRestarts caps relaunches; zero means unlimited.
	MaxRestarts int
	// Backoff is the delay in virtual time before the first relaunch;
	// each successive crash doubles it up to MaxBackoff. A healthy
	// uptime longer than MaxBackoff resets the doubling.
	Backoff    sim.Duration
	MaxBackoff sim.Duration
}

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 10 * sim.Microsecond
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = 100 * p.Backoff
	}
	return p
}

// supervised tracks one uProcess under a restart policy.
type supervised struct {
	name   string
	build  func() *smas.Program
	core   int
	policy RestartPolicy

	u         *uproc.UProc
	backoff   sim.Duration
	lastStart sim.Time
	restarts  int
	pending   bool // a relaunch event is scheduled
	// relaunch is the handle of the scheduled relaunch, so a domain
	// teardown can cancel it (CancelPending) before the event fires into
	// a manager that no longer exists.
	relaunch sim.Event
	gaveUp   bool
	err      error
}

// event records into the manager's containment log, when attached.
func (mg *Manager) event(name, detail string) {
	if mg.events != nil {
		mg.events.Record(mg.eng.Now(), name, detail)
	}
}

// Events returns the manager's containment event log, creating it (and
// attaching it to the domain) on first use.
func (mg *Manager) Events() *trace.EventLog {
	if mg.events == nil {
		mg.events = trace.NewEventLog(1 << 16)
		mg.Domain.Events = mg.events
	}
	return mg.events
}

// EnableWatchdog arms the domain's per-uProcess cycle-budget watchdog:
// past soft cycles without a voluntary park a thread counts as
// overrunning, past hard cycles its uProcess is killed.
func (mg *Manager) EnableWatchdog(softCycles, hardCycles int64) {
	mg.Domain.Watchdog = &uproc.Watchdog{SoftBudgetCycles: softCycles, HardBudgetCycles: hardCycles}
}

// Watchdog returns the armed watchdog, or nil.
func (mg *Manager) Watchdog() *uproc.Watchdog { return mg.Domain.Watchdog }

// InjectFaults attaches a fault plan; the injector fires during RunChaos.
// It also ensures the event log exists, so injections are traced.
func (mg *Manager) InjectFaults(plan faultinject.Plan) *faultinject.Injector {
	mg.Events()
	mg.injector = faultinject.New(mg.Domain, plan)
	return mg.injector
}

// Injector returns the attached injector, or nil.
func (mg *Manager) Injector() *faultinject.Injector { return mg.injector }

// Supervise launches a uProcess under a restart policy: when it dies (a
// contained fault, a watchdog kill, or an explicit destroy), its region
// and key are reclaimed and build() is relaunched after the policy's
// backoff in virtual time. build runs per launch, because program images
// are installed fresh each time.
func (mg *Manager) Supervise(name string, build func() *smas.Program, core int, policy RestartPolicy) (*uproc.UProc, error) {
	policy = policy.withDefaults()
	u, err := mg.Launch(name, build(), core)
	if err != nil {
		return nil, err
	}
	mg.Events()
	mg.supervised = append(mg.supervised, &supervised{
		name:      name,
		build:     build,
		core:      core,
		policy:    policy,
		u:         u,
		backoff:   policy.Backoff,
		lastStart: mg.eng.Now(),
	})
	return u, nil
}

// Supervised returns (restarts, gaveUp) for a supervised uProcess.
func (mg *Manager) Supervised(name string) (int, bool) {
	for _, s := range mg.supervised {
		if s.name == name {
			return s.restarts, s.gaveUp
		}
	}
	return 0, false
}

// pollSupervised reclaims dead supervised uProcesses and schedules their
// relaunches. Reclaim happens strictly before relaunch, so a crash loop
// recycles one pkey instead of exhausting the 13-key budget.
func (mg *Manager) pollSupervised() error {
	now := mg.eng.Now()
	for _, s := range mg.supervised {
		if s.pending || s.gaveUp || s.u == nil {
			continue
		}
		if s.u.State != uproc.UProcTerminated {
			// Healthy uptime past the backoff cap resets the doubling,
			// so a uProcess that crashes rarely is not punished forever.
			if now.Sub(s.lastStart) > s.policy.MaxBackoff {
				s.backoff = s.policy.Backoff
			}
			continue
		}
		if mg.Domain.RunningOn(s.u) >= 0 {
			continue // the lazy kill has not landed on every core yet
		}
		if err := mg.Domain.ReclaimRegion(s.u); err != nil {
			return err
		}
		delete(mg.named, s.name)
		if s.policy.MaxRestarts > 0 && s.restarts >= s.policy.MaxRestarts {
			s.gaveUp = true
			mg.event("restart.giveup", fmt.Sprintf("uproc=%s restarts=%d", s.name, s.restarts))
			continue
		}
		backoff := s.backoff
		if s.backoff < s.policy.MaxBackoff {
			s.backoff *= 2
			if s.backoff > s.policy.MaxBackoff {
				s.backoff = s.policy.MaxBackoff
			}
		}
		s.pending = true
		mg.event("restart.schedule", fmt.Sprintf("uproc=%s backoff=%v", s.name, backoff))
		sup := s
		scheduledAt := now
		s.relaunch = mg.eng.After(backoff, func() {
			sup.pending = false
			sup.restarts++
			sup.lastStart = mg.eng.Now()
			u, err := mg.Launch(sup.name, sup.build(), sup.core)
			if err != nil {
				sup.err = err
				sup.gaveUp = true
				mg.event("restart.fail", fmt.Sprintf("uproc=%s err=%v", sup.name, err))
				return
			}
			sup.u = u
			mg.event("restart", fmt.Sprintf("uproc=%s n=%d", sup.name, sup.restarts))
			// The restart span covers schedule→relaunch: the whole
			// backoff window the uProcess spent dead, on its home core.
			if o := mg.Domain.Obs; o != nil {
				o.Span(sup.core, scheduledAt, sup.lastStart, obs.CatRestart, sup.name)
				o.Reg().Inc("vessel.restarts")
			}
			if _, err := mg.Domain.Wake(sup.core); err != nil {
				sup.err = err
			}
		})
	}
	return nil
}

// ChaosConfig drives every core of the domain under time slicing, fault
// injection, the watchdog, and supervised restarts — the chaos-mode
// equivalent of RunTimesliced across the whole machine.
type ChaosConfig struct {
	// Steps is the per-core instruction budget for the run.
	Steps int
	// Quantum is the preemption (and injection/restart polling) interval
	// in instructions.
	Quantum int
	// Policy decides preemption per core per quantum; nil defaults to
	// RoundRobinPolicy, the historical behaviour. Wrap it in a
	// selfheal.NewFailsafe to survive policy panics and budget blowouts.
	Policy Policy
}

// ChaosReport summarises a chaos run.
type ChaosReport struct {
	Rounds      int
	Preemptions uint64
	// FatalCores lists cores fail-stopped by uncontained faults, in the
	// order they died.
	FatalCores []int
	// Restarts sums supervised relaunches; WatchdogKills and
	// ContainedFaults summarise the containment paths taken.
	Restarts        int
	WatchdogKills   uint64
	ContainedFaults uint64
}

// RunChaos runs all cores round-robin in fixed quanta. After each round it
// advances the discrete-event clock to the farthest core's cycle time
// (firing restart backoffs), fires due injections, and polls supervised
// uProcesses. Iteration order is fixed, so runs are deterministic.
func (mg *Manager) RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	var rep ChaosReport
	if cfg.Quantum <= 0 {
		return rep, fmt.Errorf("vessel: quantum must be positive")
	}
	if cfg.Steps < cfg.Quantum {
		cfg.Steps = cfg.Quantum
	}
	pol := cfg.Policy
	if pol == nil {
		pol = RoundRobinPolicy{}
	}
	fatal := make(map[int]bool)
	markFatal := func(core int) {
		if !fatal[core] {
			fatal[core] = true
			rep.FatalCores = append(rep.FatalCores, core)
			mg.event("fatal.core", fmt.Sprintf("core=%d fault=%v", core, mg.m.Core(core).Fault))
		}
	}
	rounds := (cfg.Steps + cfg.Quantum - 1) / cfg.Quantum
	for round := 0; round < rounds; round++ {
		rep.Rounds++
		progressed := false
		for core := 0; core < mg.m.NumCores(); core++ {
			if fatal[core] || mg.Domain.Fenced(core) {
				continue
			}
			c := mg.m.Core(core)
			if c.Halted {
				if c.Fault != nil {
					markFatal(core)
					continue
				}
				ok, err := mg.Domain.Wake(core)
				if err != nil {
					return rep, err
				}
				if !ok {
					continue // nothing runnable; stay idle this round
				}
			}
			ran := c.Run(cfg.Quantum)
			if ran > 0 {
				progressed = true
			}
			if c.Halted && c.Fault != nil {
				markFatal(core)
				continue
			}
			dec := pol.Decide(PolicyView{
				Core:     core,
				RanFull:  ran == cfg.Quantum,
				QueueLen: len(mg.Domain.Runqueue(core)),
				Idle:     ran == 0,
			})
			// The decision's modeled cost lands on the decided core — the
			// scheduler's overhead is part of the tenant's timeline, which
			// keeps a costed policy deterministic in virtual time.
			c.Cycles += dec.CostCycles
			if dec.Preempt {
				if err := mg.Domain.Preempt(core, uproc.SchedCommand{}); err != nil {
					return rep, err
				}
				rep.Preemptions++
			}
		}
		mg.syncClock()
		if !progressed && mg.eng.Pending() > 0 {
			// Every core is idle but virtual-time work (a restart
			// backoff, a deferred delivery) is queued: core cycles will
			// never advance the clock, so fire the next event directly
			// or the run would spin its remaining rounds frozen in time.
			mg.eng.Step()
		}
		if mg.injector != nil {
			mg.injector.Step(mg.eng.Now())
		}
		if err := mg.pollSupervised(); err != nil {
			return rep, err
		}
	}
	for _, s := range mg.supervised {
		rep.Restarts += s.restarts
		if s.err != nil {
			return rep, s.err
		}
	}
	if wd := mg.Domain.Watchdog; wd != nil {
		rep.WatchdogKills = wd.Kills
	}
	for _, u := range mg.Domain.UProcs() {
		rep.ContainedFaults += uint64(u.FaultSignals)
	}
	return rep, nil
}

// syncClock advances the discrete-event clock to the farthest core's cycle
// time, firing any virtual-time events (restart backoffs) that became due.
func (mg *Manager) syncClock() {
	var maxNs float64
	for i := 0; i < mg.m.NumCores(); i++ {
		if ns := mg.m.NsFor(mg.m.Core(i).Cycles); ns > maxNs {
			maxNs = ns
		}
	}
	if t := sim.Time(maxNs); t > mg.eng.Now() {
		mg.eng.Run(t)
	}
}
