package selfheal

import (
	"bytes"
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/failsafe"
	"vessel/internal/faultinject"
	"vessel/internal/mpk"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/trace"
	"vessel/internal/uproc"
	"vessel/internal/vessel"
)

// Config sizes and tunes a self-healing cluster.
type Config struct {
	// Domains is the number of scheduling domains; CoresPerDomain sizes
	// each domain's machine.
	Domains        int
	CoresPerDomain int
	Costs          *cpu.CostModel
	// Detector tunes the phi-accrual failure detector.
	Detector DetectorConfig
	// DetectBudget is the declared ceiling on detection MTTR (silence →
	// fence); RestartBudget is the additional ceiling on a full domain
	// restart. Exceeding either is a reported violation. Defaults:
	// 500µs each.
	DetectBudget  sim.Duration
	RestartBudget sim.Duration
	// PolicyBudgetCycles is the failsafe's per-decision cycle ceiling
	// (default 100k cycles; 0 keeps the default, -1 disables).
	PolicyBudgetCycles int64
	// Primary builds each domain's primary scheduler policy; nil uses
	// round-robin (making the failsafe swap a no-op behaviourally, but
	// still exercised).
	Primary func() vessel.Policy
	// MaxDomainRestarts caps supervised domain resurrections (0 =
	// unlimited); past it the domain is declared dead.
	MaxDomainRestarts int
	// WatchdogSoft/WatchdogHard arm each domain's cycle-budget watchdog
	// when positive.
	WatchdogSoft, WatchdogHard int64
	// EventCap bounds the shared containment event log (a ring: oldest
	// entries are overwritten). Default 1<<15 entries.
	EventCap int
	// VirtualKeys builds every domain (and every restart incarnation)
	// with libmpk-style virtualized protection keys, lifting the 13-key
	// density cap (DESIGN.md §14).
	VirtualKeys bool
	// SLOMaxViolationFrac, when positive and a journey tracer is
	// attached, is the largest acceptable fraction of SLO-violating
	// request journeys; exceeding it at the end of a run is a reported
	// violation — the SLO health signal feeding recovery alongside the
	// phi-accrual detector (DESIGN.md §15). Zero disables the check.
	SLOMaxViolationFrac float64
}

func (c Config) withDefaults() Config {
	if c.Domains <= 0 {
		c.Domains = 1
	}
	if c.CoresPerDomain <= 0 {
		c.CoresPerDomain = 1
	}
	if c.Costs == nil {
		c.Costs = cpu.Default()
	}
	if c.DetectBudget <= 0 {
		c.DetectBudget = 500 * sim.Microsecond
	}
	if c.RestartBudget <= 0 {
		c.RestartBudget = 500 * sim.Microsecond
	}
	if c.PolicyBudgetCycles == 0 {
		c.PolicyBudgetCycles = 100_000
	} else if c.PolicyBudgetCycles < 0 {
		c.PolicyBudgetCycles = 0
	}
	if c.EventCap <= 0 {
		c.EventCap = 1 << 15
	}
	return c
}

// workerSpec is the durable description of one supervised workload — what
// survives a domain restart and lets the supervisor rebuild the worker in
// a fresh incarnation.
type workerSpec struct {
	name string
	// build constructs the program against the current incarnation's
	// manager (gate addresses differ across incarnations).
	build  func(mg *vessel.Manager) *smas.Program
	core   int
	policy vessel.RestartPolicy
}

// domainState is one domain plus its recovery bookkeeping.
type domainState struct {
	id       int
	mg       *vessel.Manager
	failsafe *failsafe.Failsafe[vessel.PolicyView, vessel.PolicyDecision]
	injector *faultinject.Injector
	workers  []workerSpec
	// lastAlive is the last instant any core of the domain beat — the
	// moment the domain went fully dark, for restart MTTR.
	lastAlive  sim.Time
	restarts   int
	dead       bool
	swapLogged bool
}

// Cluster supervises a set of scheduling domains on one shared virtual
// timeline: it drives their cores, feeds the failure detector with
// progress heartbeats, fences cores that stall or fail-stop, restarts
// domains that lose every core (with full state reconciliation), heals
// leaked protection keys, and records MTTR for every recovery. All of it
// is deterministic: same configuration, same fault plans, same seeds —
// byte-identical Report.Canonical output.
type Cluster struct {
	cfg     Config
	eng     *sim.Engine
	events  *trace.EventLog
	det     *Detector
	obs     *obs.Observer
	journey *journey.Tracer
	domains []*domainState
	mttr    *stats.Histogram
	// Counters tallies recovery actions in deterministic order.
	Counters   *stats.Counters
	violations []string
	rounds     int
	started    bool
}

// New builds the cluster: one shared engine, one shared (ring) event log,
// and per domain a manager, a failsafe-wrapped policy, and optionally a
// watchdog.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		events:   trace.NewRingEventLog(cfg.EventCap),
		det:      NewDetector(cfg.Detector),
		mttr:     stats.NewHistogram(),
		Counters: stats.NewCounters(),
	}
	for i := 0; i < cfg.Domains; i++ {
		mg, err := c.newManager()
		if err != nil {
			return nil, err
		}
		mg.UseEvents(c.events)
		if cfg.WatchdogSoft > 0 || cfg.WatchdogHard > 0 {
			mg.EnableWatchdog(cfg.WatchdogSoft, cfg.WatchdogHard)
		}
		var primary vessel.Policy
		if cfg.Primary != nil {
			primary = cfg.Primary()
		}
		c.domains = append(c.domains, &domainState{
			id:       i,
			mg:       mg,
			failsafe: NewFailsafe(primary, cfg.PolicyBudgetCycles),
		})
	}
	return c, nil
}

// newManager builds one domain incarnation on the shared engine, in the
// key mode the configuration asks for.
func (c *Cluster) newManager() (*vessel.Manager, error) {
	if c.cfg.VirtualKeys {
		return vessel.NewVirtualManagerOn(c.eng, c.cfg.CoresPerDomain, c.cfg.Costs)
	}
	return vessel.NewManagerOn(c.eng, c.cfg.CoresPerDomain, c.cfg.Costs)
}

// Engine exposes the shared engine (for tests and harness wiring).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Manager returns a domain's current manager incarnation.
func (c *Cluster) Manager(domain int) *vessel.Manager { return c.domains[domain].mg }

// Failsafe returns a domain's failsafe policy wrapper.
func (c *Cluster) Failsafe(domain int) *failsafe.Failsafe[vessel.PolicyView, vessel.PolicyDecision] {
	return c.domains[domain].failsafe
}

// NewFailsafe wraps primary (nil selects round-robin) with the round-robin
// fallback and the given per-decision cycle budget (0 disables the budget
// check).
func NewFailsafe(primary vessel.Policy, budgetCycles int64) *failsafe.Failsafe[vessel.PolicyView, vessel.PolicyDecision] {
	return failsafe.New[vessel.PolicyView, vessel.PolicyDecision](primary, vessel.RoundRobinPolicy{}, budgetCycles)
}

// AttachObs installs an observer for the cluster's recovery overlays
// (fence/recover/failsafe spans, MTTR observations). Cores are numbered
// globally: domain*CoresPerDomain+core.
func (c *Cluster) AttachObs(o *obs.Observer) { c.obs = o }

// AttachJourney installs request-journey tracing on every domain (and
// every restart incarnation): seam events land in the shared flight
// recorder, and recovery actions — watchdog kills, failsafe swaps,
// domain restarts — snapshot it into black-box dumps carried by the
// report. Nil is a no-op.
func (c *Cluster) AttachJourney(t *journey.Tracer) {
	if t == nil {
		return
	}
	c.journey = t
	for _, d := range c.domains {
		d.mg.AttachJourney(t)
	}
}

// AddWorker supervises a workload on a domain: build constructs its
// program against whichever manager incarnation is current, so the worker
// survives both uProcess restarts (vessel.Supervise) and whole-domain
// restarts (this package).
func (c *Cluster) AddWorker(domain int, name string, build func(mg *vessel.Manager) *smas.Program, core int, policy vessel.RestartPolicy) error {
	d := c.domains[domain]
	d.workers = append(d.workers, workerSpec{name: name, build: build, core: core, policy: policy})
	_, err := d.mg.Supervise(name, func() *smas.Program { return build(d.mg) }, core, policy)
	return err
}

// InjectFaults attaches a chaos plan to a domain and wires the domain's
// failsafe as the plan's policy attack surface. The plan dies with the
// incarnation: faults not yet fired when the domain is restarted are
// discarded (and counted).
func (c *Cluster) InjectFaults(domain int, plan faultinject.Plan) *faultinject.Injector {
	d := c.domains[domain]
	d.injector = d.mg.InjectFaults(plan)
	d.injector.AttachPolicy(d.failsafe)
	return d.injector
}

// coreID names a domain core for the detector.
func (c *Cluster) coreID(d *domainState, core int) string {
	return fmt.Sprintf("d%d.c%d", d.id, core)
}

// globalCore flattens (domain, core) for observer spans.
func (c *Cluster) globalCore(d *domainState, core int) int {
	return d.id*c.cfg.CoresPerDomain + core
}

func (c *Cluster) event(now sim.Time, name, detail string) {
	c.events.Record(now, name, detail)
}

func (c *Cluster) violate(now sim.Time, format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	c.violations = append(c.violations, v)
	c.Counters.Inc("selfheal.violation")
	c.event(now, "heal.violation", v)
}

// start boots every domain core and registers it with the detector.
func (c *Cluster) start() error {
	for _, d := range c.domains {
		for core := 0; core < c.cfg.CoresPerDomain; core++ {
			if err := d.mg.Start(core); err != nil {
				return err
			}
			c.det.Track(c.coreID(d, core), c.eng.Now())
		}
		d.lastAlive = c.eng.Now()
	}
	c.started = true
	return nil
}

// Run drives the cluster for steps instructions per core in quanta,
// reacting to failures after every round. It is the cluster-level
// equivalent of vessel.RunChaos, plus detection and recovery.
func (c *Cluster) Run(steps, quantum int) (*Report, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("selfheal: quantum must be positive")
	}
	if steps < quantum {
		steps = quantum
	}
	if !c.started {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	// Approximate virtual duration of one idle round, used to keep the
	// clock moving when nothing executes and nothing is queued — the
	// supervisor's own tick, without which a fully wedged cluster would
	// freeze time and blind the detector.
	roundNs := sim.Duration(float64(quantum) / c.cfg.Costs.ClockGHz)
	if roundNs <= 0 {
		roundNs = sim.Microsecond
	}
	rounds := (steps + quantum - 1) / quantum
	type beatRec struct {
		id string
		d  *domainState
	}
	for round := 0; round < rounds; round++ {
		c.rounds++
		progressed := false
		var beats []beatRec
		for _, d := range c.domains {
			if d.dead {
				continue
			}
			m := d.mg.Machine()
			for core := 0; core < m.NumCores(); core++ {
				if d.mg.CoreFenced(core) {
					continue
				}
				if d.mg.Domain.Offline(core) {
					// The cluster scheduler revoked this core: it is no
					// longer this domain's responsibility, so the detector
					// must stop expecting beats from it — silence here is
					// churn, not failure.
					if id := c.coreID(d, core); c.forgetChurned(id) {
						c.Counters.Inc("selfheal.churn.forget")
					}
					continue
				}
				if id := c.coreID(d, core); c.trackChurned(id) {
					// Granted (back) to the domain mid-run: monitor it.
					c.Counters.Inc("selfheal.churn.track")
				}
				cc := m.Core(core)
				if cc.Fault != nil || cc.Stalled {
					continue // silent: the detector sees the missing beat
				}
				if cc.Halted {
					ok, err := d.mg.Domain.Wake(core)
					if err != nil {
						return nil, err
					}
					if !ok {
						// Healthy idle: nothing runnable is not a failure.
						beats = append(beats, beatRec{c.coreID(d, core), d})
						continue
					}
				}
				ran := cc.Run(quantum)
				if ran > 0 {
					progressed = true
				}
				if cc.Fault != nil || cc.Stalled {
					continue // died or wedged mid-quantum: no beat
				}
				beats = append(beats, beatRec{c.coreID(d, core), d})
				dec := d.failsafe.Decide(vessel.PolicyView{
					Core:     core,
					RanFull:  ran == quantum,
					QueueLen: len(d.mg.Domain.Runqueue(core)),
					Idle:     ran == 0,
				})
				cc.Cycles += dec.CostCycles
				if dec.Preempt {
					if err := d.mg.Domain.Preempt(core, uproc.SchedCommand{}); err != nil {
						return nil, err
					}
				}
			}
		}
		c.syncClock()
		if !progressed {
			if c.eng.Pending() > 0 {
				c.eng.Step()
			} else {
				c.eng.Run(c.eng.Now().Add(roundNs))
			}
		}
		now := c.eng.Now()
		for _, b := range beats {
			c.det.Beat(b.id, now)
			b.d.lastAlive = now
		}
		for _, d := range c.domains {
			if d.dead {
				continue
			}
			if d.injector != nil {
				d.injector.Step(now)
			}
			if err := d.mg.PollSupervised(); err != nil {
				return nil, err
			}
		}
		if err := c.react(now); err != nil {
			return nil, err
		}
	}
	if err := c.drain(); err != nil {
		return nil, err
	}
	c.finalChecks()
	return c.report(), nil
}

// forgetChurned drops a detector entity if it is still tracked,
// reporting whether anything was dropped — the revoke side of
// granted-core churn.
func (c *Cluster) forgetChurned(id string) bool {
	if _, tracked := c.det.LastBeat(id); !tracked {
		return false
	}
	c.det.Forget(id)
	return true
}

// trackChurned registers a detector entity if it is not tracked yet,
// reporting whether it was new — the grant side of granted-core churn.
// The silence clock starts now, so a freshly granted core is not
// suspected for the time it spent in another domain.
func (c *Cluster) trackChurned(id string) bool {
	if _, tracked := c.det.LastBeat(id); tracked {
		return false
	}
	c.det.Track(id, c.eng.Now())
	return true
}

// syncClock advances the shared engine to the farthest core's cycle time
// across every live domain.
func (c *Cluster) syncClock() {
	var maxNs float64
	for _, d := range c.domains {
		if d.dead {
			continue
		}
		m := d.mg.Machine()
		for i := 0; i < m.NumCores(); i++ {
			if ns := m.NsFor(m.Core(i).Cycles); ns > maxNs {
				maxNs = ns
			}
		}
	}
	if t := sim.Time(maxNs); t > c.eng.Now() {
		c.eng.Run(t)
	}
}

// react is the recovery state machine, run once per round:
//
//	detect (fatal fault, or phi over threshold)
//	  → fence the core (drain to survivors, re-home supervised workers)
//	  → if no cores remain: restart the domain (cancel stale events,
//	    fresh incarnation, re-supervise, reconcile state, check MTTR)
//	live domains additionally get pkey reconciliation (heals leaks) and
//	failsafe-swap bookkeeping.
func (c *Cluster) react(now sim.Time) error {
	for _, d := range c.domains {
		if d.dead {
			continue
		}
		m := d.mg.Machine()
		for core := 0; core < m.NumCores(); core++ {
			if d.mg.CoreFenced(core) || d.mg.Domain.Offline(core) {
				continue
			}
			id := c.coreID(d, core)
			cc := m.Core(core)
			fatal := cc.Fault != nil
			if !fatal && !c.det.Suspect(id, now) {
				continue
			}
			cause := "suspect"
			if fatal {
				cause = "fatal"
			}
			last, _ := c.det.LastBeat(id)
			mttr := now.Sub(last)
			if err := d.mg.FenceCore(core); err != nil {
				return err
			}
			c.det.Forget(id)
			c.mttr.Record(int64(mttr))
			c.Counters.Inc("selfheal.fence")
			c.event(now, "heal.fence", fmt.Sprintf("domain=%d core=%d cause=%s mttr=%v", d.id, core, cause, mttr))
			if c.obs != nil {
				c.obs.Span(c.globalCore(d, core), last, now, obs.CatFence, cause)
				c.obs.Reg().Observe("selfheal.mttr_ns", int64(mttr))
			}
			if mttr > c.cfg.DetectBudget {
				c.violate(now, "domain %d core %d: detection MTTR %v exceeds budget %v", d.id, core, mttr, c.cfg.DetectBudget)
			}
		}
		live, offline := 0, 0
		for core := 0; core < m.NumCores(); core++ {
			switch {
			case d.mg.CoreFenced(core):
			case d.mg.Domain.Offline(core):
				offline++
			default:
				live++
			}
		}
		// A domain whose cores are merely revoked (offline, not fenced) is
		// healthy-but-coreless: the cluster scheduler decides when it runs
		// again, so a restart here would fight the upper level. Restart
		// only when fencing has consumed every core the domain owned.
		if live == 0 && offline == 0 {
			if err := c.restartDomain(d, now); err != nil {
				return err
			}
			continue
		}
		c.reconcileKeys(d, now)
		if sw, reason := d.failsafe.Swapped(); sw && !d.swapLogged {
			d.swapLogged = true
			c.Counters.Inc("selfheal.failsafe.swap")
			c.event(now, "heal.failsafe", fmt.Sprintf("domain=%d reason=%s", d.id, reason))
			if c.obs != nil {
				c.obs.Span(c.globalCore(d, 0), now, now, obs.CatFailsafe, reason)
			}
			if c.journey != nil {
				c.journey.Event(now, "heal.failsafe", fmt.Sprintf("domain=%d reason=%s", d.id, reason))
				c.journey.Dump(now, fmt.Sprintf("heal.failsafe.domain%d", d.id))
			}
		}
	}
	return nil
}

// reconcileKeys frees protection keys that are allocated but owned by no
// region — the PkeyLeak class, and any future lost pkey_free. Ownership is
// judged by SMAS.KeyOwned: a region's key in direct mode, a virtual-key
// table slot in virtual mode (where slots legitimately outnumber what a
// static region index could record); anything else in the app range is a
// leak.
func (c *Cluster) reconcileKeys(d *domainState, now sim.Time) {
	s := d.mg.Domain.S
	for k := mpk.PKey(1); k < smas.RuntimeKey; k++ {
		if !s.Keys.InUse(k) || s.KeyOwned(k) {
			continue
		}
		if err := s.Keys.Free(k); err == nil {
			c.Counters.Inc("selfheal.pkey.reclaimed")
			c.event(now, "heal.pkey", fmt.Sprintf("domain=%d key=%d", d.id, k))
		}
	}
}

// restartDomain resurrects a domain that lost every core: the old
// incarnation's pending events are cancelled (stale restarts and
// deliveries must not fire into the successor), a fresh manager is built
// on the shared engine, every supervised worker is relaunched, and the new
// state is reconciled against the worker manifest — no leaked keys, no
// lost or duplicated uProcesses.
func (c *Cluster) restartDomain(d *domainState, now sim.Time) error {
	downAt := d.lastAlive
	d.restarts++
	if c.cfg.MaxDomainRestarts > 0 && d.restarts > c.cfg.MaxDomainRestarts {
		d.dead = true
		c.Counters.Inc("selfheal.domain.giveup")
		c.event(now, "heal.giveup", fmt.Sprintf("domain=%d restarts=%d", d.id, d.restarts-1))
		return nil
	}
	cancelled := d.mg.CancelPending()
	discarded := 0
	if d.injector != nil {
		discarded = d.injector.Pending()
		d.injector = nil
	}
	c.Counters.Add("selfheal.events.cancelled", uint64(cancelled))
	c.Counters.Add("selfheal.injections.discarded", uint64(discarded))
	fresh, err := c.newManager()
	if err != nil {
		return err
	}
	fresh.UseEvents(c.events)
	if c.cfg.WatchdogSoft > 0 || c.cfg.WatchdogHard > 0 {
		fresh.EnableWatchdog(c.cfg.WatchdogSoft, c.cfg.WatchdogHard)
	}
	if c.journey != nil {
		fresh.AttachJourney(c.journey)
	}
	d.mg = fresh
	baseKeys := fresh.Domain.S.Keys.Available()
	for i := range d.workers {
		spec := d.workers[i]
		if _, err := fresh.Supervise(spec.name, func() *smas.Program { return spec.build(d.mg) }, spec.core, spec.policy); err != nil {
			return fmt.Errorf("selfheal: relaunching %s in domain %d: %w", spec.name, d.id, err)
		}
	}
	for core := 0; core < c.cfg.CoresPerDomain; core++ {
		if err := fresh.Start(core); err != nil {
			return err
		}
		c.det.Track(c.coreID(d, core), now)
	}
	d.lastAlive = now

	// Reconciliation oracles: the fresh incarnation must account for
	// exactly the supervised manifest — keys, regions, uProcesses. Under
	// virtualized keys more workers can be live than hardware slots, so
	// the allocator's draw-down is the table's resident count and the
	// region census uses the virtual-region index instead of slots.
	s := fresh.Domain.S
	if s.Virtual() {
		if got, want := baseKeys-s.Keys.Available(), s.VKeys.Resident(); got != want {
			c.violate(now, "domain %d restart: %d slots drawn, want %d resident (slot leak across restart)", d.id, got, want)
		}
		if got := s.LiveRegionCount(); got != len(d.workers) {
			c.violate(now, "domain %d restart: %d regions, want %d", d.id, got, len(d.workers))
		}
	} else {
		if got, want := s.Keys.Available(), baseKeys-len(d.workers); got != want {
			c.violate(now, "domain %d restart: %d keys available, want %d (leak across restart)", d.id, got, want)
		}
		if got := len(s.RegionKeys()); got != len(d.workers) {
			c.violate(now, "domain %d restart: %d regions, want %d", d.id, got, len(d.workers))
		}
	}
	if got := len(fresh.Domain.UProcs()); got != len(d.workers) {
		c.violate(now, "domain %d restart: %d uProcesses, want %d (lost or duplicated)", d.id, got, len(d.workers))
	}
	for _, spec := range d.workers {
		if _, ok := fresh.Lookup(spec.name); !ok {
			c.violate(now, "domain %d restart: worker %s lost", d.id, spec.name)
		}
	}
	mttr := now.Sub(downAt)
	c.mttr.Record(int64(mttr))
	c.Counters.Inc("selfheal.domain.restart")
	c.event(now, "heal.restart", fmt.Sprintf("domain=%d n=%d cancelled=%d discarded=%d mttr=%v", d.id, d.restarts, cancelled, discarded, mttr))
	if c.journey != nil {
		c.journey.Event(now, "heal.restart", fmt.Sprintf("domain=%d n=%d mttr=%v", d.id, d.restarts, mttr))
		c.journey.Dump(now, fmt.Sprintf("heal.restart.domain%d", d.id))
	}
	if c.obs != nil {
		c.obs.Span(c.globalCore(d, 0), downAt, now, obs.CatRecover, fmt.Sprintf("domain=%d", d.id))
		c.obs.Reg().Observe("selfheal.mttr_ns", int64(mttr))
		c.obs.Reg().Inc("selfheal.domain.restarts")
	}
	if budget := c.cfg.DetectBudget + c.cfg.RestartBudget; mttr > budget {
		c.violate(now, "domain %d restart MTTR %v exceeds budget %v", d.id, mttr, budget)
	}
	return nil
}

// drain settles in-flight recovery work (supervised relaunch backoffs) so
// the final oracles judge a quiescent cluster, not one mid-restart.
func (c *Cluster) drain() error {
	for i := 0; i < 8 && c.eng.Pending() > 0; i++ {
		c.eng.RunAll(1 << 20)
		for _, d := range c.domains {
			if d.dead {
				continue
			}
			if err := d.mg.PollSupervised(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalChecks runs the post-run conservation oracles: every supervised
// worker of a live domain is either running or has explicitly given up,
// and no live domain holds unaccounted protection keys.
func (c *Cluster) finalChecks() {
	now := c.eng.Now()
	for _, d := range c.domains {
		if d.dead {
			continue
		}
		c.reconcileKeys(d, now)
		for _, spec := range d.workers {
			_, ok := d.mg.Lookup(spec.name)
			_, gaveUp := d.mg.Supervised(spec.name)
			if !ok && !gaveUp {
				c.violate(now, "domain %d worker %s lost: not running, not given up", d.id, spec.name)
			}
		}
	}
	// SLO health: the journey tracer's windowed violation fraction is a
	// first-class recovery signal — too many tail-violating requests is a
	// breach even when every core kept beating.
	if c.journey != nil && c.cfg.SLOMaxViolationFrac > 0 {
		if frac := c.journey.ViolationFrac(); frac > c.cfg.SLOMaxViolationFrac {
			c.violate(now, "SLO violation fraction %.4f exceeds budget %.4f", frac, c.cfg.SLOMaxViolationFrac)
		}
	}
}

// Report is the outcome of a Run, with a canonical byte rendering as the
// determinism witness.
type Report struct {
	Rounds              int
	Fences              int
	DomainRestarts      int
	DomainsDead         int
	PolicySwaps         int
	PkeysHealed         int
	EventsCancelled     int
	InjectionsDiscarded int
	// MTTR aggregates every recovery's time-to-repair (ns of virtual
	// time): fence detections and domain restarts.
	MTTR stats.Summary
	// Violations are recovery-invariant breaches; an empty list is the
	// pass condition the chaos soak gates on.
	Violations []string
	Counters   *stats.Counters
	Events     *trace.EventLog
	// FlightDumps are the journey flight-recorder snapshots captured at
	// recovery moments (uProcess kills, failsafe swaps, domain
	// restarts); empty without an attached tracer. SLOGood/SLOBad are
	// the tracer's SLO tallies over finished request journeys.
	FlightDumps     []journey.Dump
	SLOGood, SLOBad uint64
}

func (c *Cluster) report() *Report {
	dead := 0
	for _, d := range c.domains {
		if d.dead {
			dead++
		}
	}
	good, bad := c.journey.SLOCounts()
	return &Report{
		Rounds:              c.rounds,
		Fences:              int(c.Counters.Get("selfheal.fence")),
		DomainRestarts:      int(c.Counters.Get("selfheal.domain.restart")),
		DomainsDead:         dead,
		PolicySwaps:         int(c.Counters.Get("selfheal.failsafe.swap")),
		PkeysHealed:         int(c.Counters.Get("selfheal.pkey.reclaimed")),
		EventsCancelled:     int(c.Counters.Get("selfheal.events.cancelled")),
		InjectionsDiscarded: int(c.Counters.Get("selfheal.injections.discarded")),
		MTTR:                c.mttr.Summarize(),
		Violations:          append([]string(nil), c.violations...),
		Counters:            c.Counters,
		Events:              c.events,
		FlightDumps:         c.journey.Dumps(),
		SLOGood:             good,
		SLOBad:              bad,
	}
}

// Canonical renders the report deterministically: identical runs produce
// byte-identical output, which is how the chaos soak proves replayability.
func (r *Report) Canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rounds=%d fences=%d restarts=%d dead=%d swaps=%d healedkeys=%d cancelled=%d discarded=%d\n",
		r.Rounds, r.Fences, r.DomainRestarts, r.DomainsDead, r.PolicySwaps,
		r.PkeysHealed, r.EventsCancelled, r.InjectionsDiscarded)
	fmt.Fprintf(&b, "mttr: n=%d p50=%d p99=%d max=%d\n", r.MTTR.Count, r.MTTR.P50, r.MTTR.P99, r.MTTR.Max)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	b.WriteString(r.Counters.String())
	fmt.Fprintf(&b, "events (overwritten=%d):\n", r.Events.Overwritten())
	b.WriteString(r.Events.String())
	// Journey sections render only when a tracer produced data, so the
	// canonical bytes of tracer-less runs are unchanged.
	if r.SLOGood+r.SLOBad > 0 {
		fmt.Fprintf(&b, "slo: good=%d bad=%d frac=%.4f\n",
			r.SLOGood, r.SLOBad, float64(r.SLOBad)/float64(r.SLOGood+r.SLOBad))
	}
	for i, d := range r.FlightDumps {
		fmt.Fprintf(&b, "flight-dump %d:\n", i)
		b.WriteString(d.Text())
	}
	return b.Bytes()
}
