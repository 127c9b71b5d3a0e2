package main

import (
	"fmt"
	"io"

	"vessel"
	"vessel/internal/conformance"
	"vessel/internal/harness"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
)

// unit is one simulated run inside a pass, with everything the
// correctness gate and the end-to-end metrics need from it.
type unit struct {
	name  string
	canon []byte
	// violations are the oracle failures the unit's own checks found.
	violations []string
	requests   uint64 // simulated L-app requests offered
	switches   uint64 // simulated context switches
}

// pass is one execution of a workload's fixed work: the timed part of an
// iteration. It returns its units in plan order. The stopwatch runs when
// the pass starts; the pass stops it around rendering and checking
// results, which is the benchmark's work, not the simulator's.
type pass func(tr *tracer, sw *stopwatch) ([]unit, error)

// workload prepares an iteration from the seed. prepare is timed as
// set-up; the pass it returns is timed as wall_s. An iteration's inputs
// are rebuilt on every prepare because simulated apps and clusters carry
// run state and can run only once.
type workload struct {
	name    string
	why     string
	prepare func(seed uint64, tr *tracer) (pass, error)
	// reference, when set, runs the same units without the
	// workload's instrumentation: the canonical bytes a pass must
	// reproduce. Workloads without it use their own first pass.
	reference func(seed uint64, tr *tracer) (pass, error)
}

// splitmix64 derives the simulator seed from the benchmark seed, so that
// every benchmark seed, zero included, gives well-mixed inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mcApp(load float64) harness.AppSpec {
	return harness.AppSpec{Name: "memcached", Kind: "L", Dist: "memcached", LoadFrac: load}
}

func siloApp(load float64) harness.AppSpec {
	return harness.AppSpec{Name: "silo", Kind: "L", Dist: "silo", LoadFrac: load}
}

func linpackApp() harness.AppSpec {
	return harness.AppSpec{Name: "linpack", Kind: "B", BWDemand: 0.5, MemFrac: 0.05}
}

func membenchApp() harness.AppSpec {
	return harness.AppSpec{Name: "membench", Kind: "B", BWDemand: 12.0, MemFrac: 0.7}
}

// Colocation runs use the quick-mode experiment shape: 8 cores, 20 ms
// measured after 4 ms of warm-up.
func coloSpec(seed uint64, scheduler string, apps ...harness.AppSpec) harness.RunSpec {
	return harness.RunSpec{
		Scheduler:  scheduler,
		Seed:       splitmix64(seed),
		Cores:      8,
		DurationNs: int64(20 * sim.Millisecond),
		WarmupNs:   int64(4 * sim.Millisecond),
		Apps:       apps,
	}
}

// scaleSpec is one Figure 12 probe at 42 cores with quick-mode lengths.
func scaleSpec(seed uint64, scheduler string, load float64) harness.RunSpec {
	return harness.RunSpec{
		Scheduler:  scheduler,
		Seed:       splitmix64(seed),
		Cores:      42,
		DurationNs: int64(8 * sim.Millisecond),
		WarmupNs:   int64(2 * sim.Millisecond),
		Apps:       []harness.AppSpec{mcApp(load), linpackApp()},
	}
}

// scaleLoads is the fixed ladder of offered loads, as fractions of ideal
// capacity, at which the Figure 12 cells are probed.
var scaleLoads = []float64{0.6, 0.8, 0.95}

func scalePlan(seed uint64) harness.Plan {
	var p harness.Plan
	for _, s := range []string{"VESSEL", "Caladan-DR-L"} {
		for _, lf := range scaleLoads {
			p.Add(scaleSpec(seed, s, lf))
		}
	}
	return p
}

// fig9Loads reproduces the quick Figure 9 sweep: Arachne and Linux are
// capped at their in-range points, as the paper sweeps them.
func fig9Loads(scheduler string) []float64 {
	switch scheduler {
	case "Arachne":
		return []float64{0.15}
	case "Linux":
		return []float64{0.05}
	}
	return []float64{0.2, 0.5, 0.8}
}

var allSchedulers = []string{"VESSEL", "Caladan", "Caladan-DR-L", "Caladan-DR-H", "Arachne", "Linux"}

func coloPlan(seed uint64) harness.Plan {
	var p harness.Plan
	for _, wl := range []string{"memcached", "silo"} {
		for _, s := range allSchedulers {
			for _, lf := range fig9Loads(s) {
				app := mcApp(lf)
				if wl == "silo" {
					app = siloApp(lf)
				}
				p.Add(coloSpec(seed, s, app, linpackApp()))
			}
		}
	}
	// Figure 13: memcached against membench under VESSEL's bandwidth
	// regulation.
	bw := coloSpec(seed, "VESSEL", mcApp(0.5), membenchApp())
	bw.BWTargetFrac = 0.6
	p.Add(bw)
	// Two L-apps of different priority, so VESSEL's preemption path and
	// the engine's Cancel run.
	hi := mcApp(0.3)
	hi.Name, hi.Priority = "memcached-hi", 2
	lo := siloApp(0.4)
	lo.Name = "silo-lo"
	p.Add(coloSpec(seed, "VESSEL", hi, lo, linpackApp()))
	return p
}

// observedPlan is a fixed subset of colo's specs, at the lowest load of
// each scheduler's sweep, plus the lightest VESSEL scale cell. A
// full-fidelity tracer holds every journey of its run in memory, so the
// subset keeps the run's footprint small.
func observedPlan(seed uint64) harness.Plan {
	var p harness.Plan
	for _, s := range []string{"VESSEL", "Caladan", "Linux"} {
		p.Add(coloSpec(seed, s, mcApp(fig9Loads(s)[0]), linpackApp()))
	}
	p.Add(scaleSpec(seed, "VESSEL", scaleLoads[0]))
	return p
}

func specName(s harness.RunSpec) string {
	name := fmt.Sprintf("%s/%dc", s.Scheduler, s.Cores)
	for _, a := range s.Apps {
		if a.Kind == "L" {
			name += fmt.Sprintf("/%s@%g", a.Name, a.LoadFrac)
		} else {
			name += "/" + a.Name
		}
	}
	if s.BWTargetFrac > 0 {
		name += fmt.Sprintf("/bw%g", s.BWTargetFrac)
	}
	return name
}

// resultUnit folds one layer-2 result into a unit and runs the universal
// result oracle on it.
func resultUnit(spec harness.RunSpec, cfg sched.Config, res sched.Result) unit {
	u := unit{name: specName(spec), canon: res.Canonical(), switches: res.Switches}
	for _, a := range res.Apps {
		u.requests += a.Offered
	}
	for _, v := range conformance.CheckResult(u.name, cfg, res) {
		u.violations = append(u.violations, v.String())
	}
	return u
}

type preparedRun struct {
	spec  harness.RunSpec
	sched sched.Scheduler
	cfg   sched.Config
}

// prepareRuns materialises every spec of a plan: scheduler, cost model and
// freshly built apps.
func prepareRuns(p harness.Plan) ([]preparedRun, error) {
	runs := make([]preparedRun, len(p.Specs))
	for i, spec := range p.Specs {
		s, err := harness.SchedulerByName(spec.Scheduler)
		if err != nil {
			return nil, err
		}
		cfg := spec.Config()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", specName(spec), err)
		}
		runs[i] = preparedRun{spec: spec, sched: s, cfg: cfg}
	}
	return runs, nil
}

// sequential runs prepared specs one after another through sched.Run,
// with a span around each call.
func sequential(runs []preparedRun) pass {
	return func(tr *tracer, sw *stopwatch) ([]unit, error) {
		results := make([]sched.Result, len(runs))
		for i, r := range runs {
			sp := tr.begin("sched.Run", r.spec.Scheduler)
			res, err := sched.Run(r.sched, r.cfg)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", specName(r.spec), err)
			}
			results[i] = res
		}
		sw.stop()
		units := make([]unit, len(runs))
		for i, r := range runs {
			units[i] = resultUnit(r.spec, r.cfg, results[i])
		}
		return units, nil
	}
}

func prepareScale(seed uint64, tr *tracer) (pass, error) {
	sp := tr.begin("harness.prepare", "scale")
	runs, err := prepareRuns(scalePlan(seed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return sequential(runs), nil
}

// coloParallel is the executor's worker count for the colo plan, as
// cmd/experiments runs it on a two-CPU host.
const coloParallel = 2

func prepareColo(seed uint64, tr *tracer) (pass, error) {
	sp := tr.begin("harness.prepare", "colo")
	plan := coloPlan(seed)
	// The executor builds its own apps; these configs only prove that
	// every spec materialises and validates before the timed pass.
	runs, err := prepareRuns(plan)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	exec := &harness.Executor{Parallel: coloParallel}
	return func(tr *tracer, sw *stopwatch) ([]unit, error) {
		sp := tr.begin("harness.RunPlan", "colo")
		results, err := exec.RunPlan(plan)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sw.stop()
		units := make([]unit, len(results))
		for i, rr := range results {
			units[i] = resultUnit(rr.Spec, runs[i].cfg, rr.Result)
		}
		return units, nil
	}, nil
}

func prepareObservedReference(seed uint64, tr *tracer) (pass, error) {
	runs, err := prepareRuns(observedPlan(seed))
	if err != nil {
		return nil, err
	}
	return sequential(runs), nil
}

// prepareObserved attaches a fresh full-fidelity journey tracer and
// observer to every run: both oracles require one per run.
func prepareObserved(seed uint64, tr *tracer) (pass, error) {
	sp := tr.begin("harness.prepare", "observed")
	runs, err := prepareRuns(observedPlan(seed))
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	for i := range runs {
		runs[i].cfg.Journey = journey.New()
		runs[i].cfg.Obs = obs.New(0)
	}
	tr.end(sp)
	return func(tr *tracer, sw *stopwatch) ([]unit, error) {
		units := make([]unit, len(runs))
		for i := range runs {
			r := &runs[i]
			sp := tr.begin("sched.Run", r.spec.Scheduler)
			res, err := sched.Run(r.sched, r.cfg)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", specName(r.spec), err)
			}
			sp = tr.begin("journey.WriteText", r.spec.Scheduler)
			jerr := r.cfg.Journey.WriteText(io.Discard)
			tr.end(sp)
			sp = tr.begin("obs.WriteText", r.spec.Scheduler)
			oerr := r.cfg.Obs.WriteText(io.Discard)
			tr.end(sp)
			if jerr != nil || oerr != nil {
				return nil, fmt.Errorf("%s: export: journey %v, obs %v", specName(r.spec), jerr, oerr)
			}
			// Check each run as it ends and drop its tracer, so only
			// one run's journeys are ever held in memory.
			sw.stop()
			u := resultUnit(r.spec, r.cfg, res)
			for _, v := range conformance.CheckJourney(u.name, r.cfg.Journey, res) {
				u.violations = append(u.violations, v.String())
			}
			for _, v := range conformance.CheckProfile(u.name, r.cfg.Obs, res) {
				u.violations = append(u.violations, v.String())
			}
			units[i] = u
			r.cfg = sched.Config{}
			sw.start()
		}
		sw.stop()
		return units, nil
	}, nil
}

// Cluster shape, as cmd/clusterbench runs its core auction.
const (
	clusterDomains      = 4
	clusterCores        = 32
	clusterCoresPerNode = 8
	clusterWaves        = 3
	clusterHeavy        = 12 // uProcesses per heavy domain per wave
	clusterLight        = 2  // uProcesses per light domain per wave
	clusterWaveRounds   = 6
)

// clusterSteadyRounds is the timed part of a cluster iteration.
const clusterSteadyRounds = 600

// clusterSwitches sums voluntary parks and preemptions over every domain
// and core.
func clusterSwitches(s *vessel.ScheduledCluster) (parks, switches uint64) {
	for d := 0; d < s.Domains(); d++ {
		m := s.Manager(d)
		for c := 0; c < m.NumCores(); c++ {
			p, pre := m.Stats(c)
			parks += p
			switches += p + pre
		}
	}
	return parks, switches
}

// prepareCluster boots the cluster and runs the three launch waves. Each
// uProcess is a park loop whose compute block is drawn from the seed.
func prepareCluster(seed uint64, tr *tracer) (pass, error) {
	sp := tr.begin("vessel.NewScheduledCluster", "fairshare")
	s, err := vessel.NewScheduledCluster(vessel.SchedClusterConfig{
		Domains:      clusterDomains,
		Cores:        clusterCores,
		CoresPerNode: clusterCoresPerNode,
		Policy:       "fairshare",
		Quantum:      1000,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rng := splitmix64(seed)
	for w := 0; w < clusterWaves; w++ {
		sp := tr.begin("vessel.ScheduledCluster.Launch", fmt.Sprintf("wave%d", w))
		for d := 0; d < s.Domains(); d++ {
			n := clusterLight
			if d < s.Domains()/2 {
				n = clusterHeavy
			}
			for i := 0; i < n; i++ {
				rng = splitmix64(rng)
				work := int64(300 + rng%401)
				name := fmt.Sprintf("w%d-d%d-%d", w, d, i)
				build := func(m *vessel.Manager) (*vessel.Program, error) {
					return m.NewProgram(name).Forever(func(b *vessel.ProgramBuilder) {
						b.Compute(work).Park()
					}).Build()
				}
				if _, err := s.Launch(d, name, build); err != nil {
					tr.end(sp)
					return nil, fmt.Errorf("launch %s: %w", name, err)
				}
			}
		}
		tr.end(sp)
		sp = tr.begin("vessel.ScheduledCluster.Run", fmt.Sprintf("wave%d", w))
		err := s.Run(clusterWaveRounds)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return func(tr *tracer, sw *stopwatch) ([]unit, error) {
		parks0, sw0 := clusterSwitches(s)
		sp := tr.begin("vessel.ScheduledCluster.Run", "steady")
		err := s.Run(clusterSteadyRounds)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sw.stop()
		parks1, sw1 := clusterSwitches(s)
		rep := s.Report()
		// The ledger's canonical bytes, then every core's park and
		// preemption counts and cycles: the simulated outcome.
		canon := rep.Canonical()
		for d := 0; d < s.Domains(); d++ {
			m := s.Manager(d)
			for c := 0; c < m.NumCores(); c++ {
				p, pre := m.Stats(c)
				canon = fmt.Appendf(canon, "domain=%d core=%d parks=%d preempts=%d ns=%g\n", d, c, p, pre, m.CyclesNs(c))
			}
		}
		u := unit{name: "cluster/fairshare", canon: canon, requests: parks1 - parks0, switches: sw1 - sw0}
		for _, v := range conformance.CheckClusterSched(u.name, rep) {
			u.violations = append(u.violations, v.String())
		}
		return []unit{u}, nil
	}, nil
}

var workloads = []workload{
	{
		name:    "scale",
		why:     "Figure 12 hot cells at 42 cores: a deep event queue stresses the engine, arrivals and allocation",
		prepare: prepareScale,
	},
	{
		name:    "colo",
		why:     "Figure 1/9/13 colocation on 8 cores through the parallel executor: shallow queue, policy logic dominates",
		prepare: prepareColo,
	},
	{
		name:      "observed",
		why:       "colo and scale specs with journey tracing and the observer attached: the only workload running obs hooks",
		prepare:   prepareObserved,
		reference: prepareObservedReference,
	},
	{
		name:    "cluster",
		why:     "two-level core auction over 84 park-loop uProcesses: the only workload executing layer-1 instructions",
		prepare: prepareCluster,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
