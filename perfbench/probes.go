package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"vessel/internal/clustersched"
	"vessel/internal/cpu"
	"vessel/internal/harness"
	"vessel/internal/mem"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	ivessel "vessel/internal/vessel"
	iworkload "vessel/internal/workload"
)

// Probes time one layer's public functions on their own, so each layer
// has a number even on workloads that do not run it. Every probe does a
// fixed amount of work drawn from the seed and reports the median of its
// repetitions.

const probeReps = 5

// timed runs f probeReps times and returns the median host CPU time (see
// endToEnd for why CPU time).
func timed(tr *tracer, name string, f func() error) (time.Duration, error) {
	times := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		sp := tr.begin(name, "")
		t0 := procCPU()
		err := f()
		d := procCPU() - t0
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, float64(d))
	}
	return time.Duration(median(times)), nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// delays draws n event delays in [1, 10000) ns from the seed.
func delays(seed uint64, n int) []sim.Duration {
	out := make([]sim.Duration, n)
	x := seed
	for i := range out {
		x = splitmix64(x)
		out[i] = sim.Duration(1 + x%9999)
	}
	return out
}

const engineOps = 200_000

// probeEngine holds an engine at a fixed queue depth and times At+Step
// pairs: each step fires the earliest event and one new event replaces it.
func probeEngine(tr *tracer, seed uint64, depth int, m metrics) error {
	ds := delays(seed, 4096)
	noop := func() {}
	var allocs uint64
	d, err := timed(tr, fmt.Sprintf("sim.Engine.At+Step/d%d", depth), func() error {
		eng := sim.NewEngine()
		for i := 0; i < depth; i++ {
			eng.After(ds[i%len(ds)], noop)
		}
		a0 := mallocs()
		for i := 0; i < engineOps; i++ {
			eng.After(ds[i%len(ds)], noop)
			eng.Step()
		}
		allocs = mallocs() - a0
		if eng.Pending() != depth {
			return fmt.Errorf("queue depth %d, want %d", eng.Pending(), depth)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set(fmt.Sprintf("sim.event_ns.d%d", depth), "ns", float64(d)/engineOps)
	if depth == 256 {
		m.set("sim.event_allocs", "count", float64(allocs)/engineOps)
	}
	return nil
}

// probeCancel holds an engine at depth 256 and times At+Cancel pairs, each
// cancelling the oldest still-pending event, from mid-queue.
func probeCancel(tr *tracer, seed uint64, m metrics) error {
	const depth = 256
	ds := delays(seed, 4096)
	noop := func() {}
	d, err := timed(tr, "sim.Engine.At+Cancel/d256", func() error {
		eng := sim.NewEngine()
		ring := make([]sim.Event, depth)
		for i := range ring {
			ring[i] = eng.After(ds[i], noop)
		}
		for i := 0; i < engineOps; i++ {
			slot := i % depth
			eng.Cancel(ring[slot])
			ring[slot] = eng.After(ds[i%len(ds)], noop)
		}
		if eng.Pending() != depth {
			return fmt.Errorf("queue depth %d, want %d", eng.Pending(), depth)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sim.cancel_ns.d256", "ns", float64(d)/engineOps)
	return nil
}

// probeArrivals times GenerateArrivals plus the engine run that fires
// them, per arrival, on a fresh engine: Poisson, then with Figure 10's
// ON/OFF burst modulation.
func probeArrivals(tr *tracer, seed uint64, m metrics) error {
	const until = sim.Time(20 * sim.Millisecond)
	rate := 0.8 * sched.IdealLCapacity(8, iworkload.Memcached())
	for _, burst := range []bool{false, true} {
		var arrivals, allocs uint64
		name := "workload.GenerateArrivals"
		if burst {
			name += "/burst"
		}
		d, err := timed(tr, name, func() error {
			app := iworkload.NewLApp("memcached", iworkload.Memcached(), rate)
			if burst {
				app.Burst = &iworkload.Burst{OnMean: 200 * sim.Microsecond, OffMean: 200 * sim.Microsecond, Factor: 2}
			}
			eng := sim.NewEngine()
			a0 := mallocs()
			err := app.GenerateArrivals(eng, sim.NewRNG(splitmix64(seed)), until, func(*iworkload.Request) { app.Dequeue() })
			if err != nil {
				return err
			}
			eng.RunAll(1 << 30)
			allocs = mallocs() - a0
			arrivals = app.Offered
			if arrivals == 0 {
				return fmt.Errorf("no arrivals")
			}
			return nil
		})
		if err != nil {
			return err
		}
		if burst {
			m.set("workload.arrival_ns.burst", "ns", float64(d)/float64(arrivals))
		} else {
			m.set("workload.arrival_ns", "ns", float64(d)/float64(arrivals))
			m.set("workload.arrival_allocs", "count", float64(allocs)/float64(arrivals))
		}
	}
	return nil
}

// probeStats times Histogram.Record over log-normal latencies drawn from
// the seed, and Summarize over the filled histogram.
func probeStats(tr *tracer, seed uint64, m metrics) error {
	const n = 1 << 20
	rng := sim.NewRNG(splitmix64(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.LogNormal(9, 1))
	}
	h := stats.NewHistogram()
	d, err := timed(tr, "stats.Histogram.Record", func() error {
		h = stats.NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("stats.record_ns", "ns", float64(d)/n)
	const sums = 2000
	d, err = timed(tr, "stats.Histogram.Summarize", func() error {
		for i := 0; i < sums; i++ {
			if h.Summarize().Count != n {
				return fmt.Errorf("summary lost samples")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("stats.summarize_us", "us", float64(d)/sums/1e3)
	return nil
}

// probeSpec is the standalone scheduler-model probe: memcached at half of
// ideal load beside linpack on 8 cores.
func probeSpec(seed uint64, scheduler string) harness.RunSpec {
	return coloSpec(seed, scheduler, mcApp(0.5), linpackApp())
}

// runSpec runs one spec through sched.Run with optional instrumentation
// and returns the host time and the simulated requests offered.
func runSpec(tr *tracer, spec harness.RunSpec, jt *journey.Tracer, o *obs.Observer) (time.Duration, uint64, error) {
	s, err := harness.SchedulerByName(spec.Scheduler)
	if err != nil {
		return 0, 0, err
	}
	cfg := spec.Config()
	cfg.Journey, cfg.Obs = jt, o
	runtime.GC() // every run starts from the same heap state
	sp := tr.begin("sched.Run", spec.Scheduler)
	t0 := procCPU()
	res, err := sched.Run(s, cfg)
	d := procCPU() - t0
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	var offered uint64
	for _, a := range res.Apps {
		offered += a.Offered
	}
	if offered == 0 {
		return 0, 0, fmt.Errorf("%s offered no requests", specName(spec))
	}
	return d, offered, nil
}

// probeSchedulers reports host ns per simulated request for each
// scheduler model on the probe spec.
func probeSchedulers(tr *tracer, seed uint64, m metrics) error {
	for _, s := range []struct{ metric, name string }{
		{"vessel.req_ns", "VESSEL"},
		{"caladan.req_ns", "Caladan"},
		{"caladan-dr-l.req_ns", "Caladan-DR-L"},
		{"cfs.req_ns", "Linux"},
		{"arachne.req_ns", "Arachne"},
	} {
		var per []float64
		for r := 0; r < 3; r++ {
			d, offered, err := runSpec(tr, probeSpec(seed, s.name), nil, nil)
			if err != nil {
				return err
			}
			per = append(per, float64(d)/float64(offered))
		}
		m.set(s.metric, "ns", median(per))
	}
	return nil
}

// probeObservability runs VESSEL's probe spec untraced, with a fresh
// full-fidelity journey tracer, and with a fresh observer, interleaved,
// and reports each instrumented run's extra host time as a share of the
// untraced run's, plus the time to write each export.
func probeObservability(tr *tracer, seed uint64, m metrics) error {
	spec := probeSpec(seed, "VESSEL")
	var base, jrn, ob, jexp, oexp []float64
	for r := 0; r < 3; r++ {
		d, _, err := runSpec(tr, spec, nil, nil)
		if err != nil {
			return err
		}
		base = append(base, float64(d))
		jt := journey.New()
		if d, _, err = runSpec(tr, spec, jt, nil); err != nil {
			return err
		}
		jrn = append(jrn, float64(d))
		o := obs.New(0)
		if d, _, err = runSpec(tr, spec, nil, o); err != nil {
			return err
		}
		ob = append(ob, float64(d))
		sp := tr.begin("journey.WriteText", "VESSEL")
		t0 := procCPU()
		jerr := jt.WriteText(io.Discard)
		jexp = append(jexp, float64(procCPU()-t0))
		tr.end(sp)
		sp = tr.begin("obs.WriteText", "VESSEL")
		t0 = procCPU()
		oerr := o.WriteText(io.Discard)
		oexp = append(oexp, float64(procCPU()-t0))
		tr.end(sp)
		if jerr != nil || oerr != nil {
			return fmt.Errorf("export: journey %v, obs %v", jerr, oerr)
		}
	}
	m.set("journey.overhead_frac", "ratio", median(jrn)/median(base)-1)
	m.set("obs.overhead_frac", "ratio", median(ob)/median(base)-1)
	m.set("journey.export_ms", "ms", median(jexp)/1e6)
	m.set("obs.export_ms", "ms", median(oexp)/1e6)
	return nil
}

// probeParallel times the memcached half of the colo plan at 2 executor
// workers against 1.
func probeParallel(tr *tracer, seed uint64, m metrics) error {
	full := coloPlan(seed)
	var plan harness.Plan
	for _, s := range full.Specs {
		if s.Apps[0].Name == "memcached" && len(s.Apps) == 2 && s.Apps[1].Name == "linpack" {
			plan.Add(s)
		}
	}
	var t1, t2 []float64
	for r := 0; r < 2; r++ {
		for _, workers := range []int{1, coloParallel} {
			e := &harness.Executor{Parallel: workers}
			sp := tr.begin("harness.RunPlan", fmt.Sprintf("workers=%d", workers))
			t0 := time.Now()
			_, err := e.RunPlan(plan)
			d := float64(time.Since(t0))
			tr.end(sp)
			if err != nil {
				return err
			}
			if workers == 1 {
				t1 = append(t1, d)
			} else {
				t2 = append(t2, d)
			}
		}
	}
	m.set("harness.parallel_speedup", "ratio", median(t1)/median(t2))
	return nil
}

// loopProgram is a park-free uProcess compute loop: register and stack
// traffic the superblock engine fuses, closed by a jump.
func loopProgram() *smas.Program {
	a := cpu.NewAssembler()
	a.Emit(cpu.MovImm{Dst: cpu.RBX, Imm: 27})
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RBX, Imm: 3})
	a.Emit(cpu.Push{Src: cpu.RBX})
	a.Emit(cpu.Pop{Dst: cpu.RDX})
	a.Emit(cpu.Work{N: 10})
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.JmpTo("loop")
	return &smas.Program{Name: "compute", Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// parkProgram loops a compute block and a park through the call gate.
func parkProgram(mg *ivessel.Manager, name string, work int64) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.Work{N: work})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// probeCPU times one uProcess's compute loop per simulated instruction and
// reports the superblock store's hit share.
func probeCPU(tr *tracer, m metrics) error {
	const steps = 4_000_000
	var hitFrac float64
	d, err := timed(tr, "cpu.Core.Run", func() error {
		mg, err := ivessel.NewManager(1, nil)
		if err != nil {
			return err
		}
		if _, err := mg.Launch("compute", loopProgram(), 0); err != nil {
			return err
		}
		if err := mg.Start(0); err != nil {
			return err
		}
		if n := mg.Step(0, steps); n != steps {
			return fmt.Errorf("ran %d of %d instructions", n, steps)
		}
		fills, hits, _ := mg.Machine().Core(0).SuperblockStats()
		hitFrac = float64(hits) / float64(hits+fills)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cpu.instr_ns", "ns", float64(d)/steps)
	m.set("cpu.sb_hit_frac", "ratio", hitFrac)
	return nil
}

// probeSwitch times a park ping-pong among n uProcesses on one core and
// returns host ns per park. virtual selects a virtual-key domain.
func probeSwitch(tr *tracer, seed uint64, name string, n int, virtual bool) (float64, error) {
	const steps = 1_000_000
	var parks uint64
	d, err := timed(tr, name, func() error {
		newMg := ivessel.NewManager
		if virtual {
			newMg = ivessel.NewManagerVirtual
		}
		mg, err := newMg(1, nil)
		if err != nil {
			return err
		}
		x := seed
		for i := 0; i < n; i++ {
			x = splitmix64(x)
			pname := fmt.Sprintf("p%02d", i)
			if _, err := mg.Launch(pname, parkProgram(mg, pname, int64(20+x%21)), 0); err != nil {
				return err
			}
		}
		if err := mg.Start(0); err != nil {
			return err
		}
		mg.Step(0, steps)
		parks, _ = mg.Domain.CoreStats(0)
		if parks == 0 {
			return fmt.Errorf("no parks")
		}
		if c := mg.Machine().Core(0); c.Fault != nil {
			return c.Fault
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(parks), nil
}

// noopClient acknowledges every upcall without actuating it.
type noopClient struct{}

func (noopClient) CoreGranted(int, sim.Time) error        { return nil }
func (noopClient) CoreRevoked(int, sim.Time) (int, error) { return 0, nil }

// probeCluster times Sched.Schedule with the fairshare policy on a
// standalone ledger shaped like the cluster workload, fed synthetic demand
// drawn from the seed. A decision round refreshes every domain's demand
// signals, runs Schedule and delivers the upcalls to a client that
// acknowledges them; timing each Schedule call alone would cost as much
// as the call.
func probeCluster(tr *tracer, seed uint64, m metrics) error {
	const decisions = 20_000
	var per []float64
	for r := 0; r < probeReps; r++ {
		sp := tr.begin("clustersched.Sched.Schedule", "")
		p, err := clustersched.NewNamed("fairshare")
		if err != nil {
			return err
		}
		s, err := clustersched.New(clustersched.Config{
			Topo:    clustersched.Topology{Cores: clusterCores, CoresPerNode: clusterCoresPerNode},
			Domains: clusterDomains,
		}, p)
		if err != nil {
			return err
		}
		if _, err := s.Bootstrap(0, 0); err != nil {
			return err
		}
		x := seed
		t0 := procCPU()
		for i := 0; i < decisions; i++ {
			at := sim.Time(i) * sim.Time(sim.Microsecond)
			for dom := 0; dom < clusterDomains; dom++ {
				x = splitmix64(x)
				q := int(x % 40)
				s.SetSignals(dom, q, 0)
				if q > 2*s.GrantedCount(dom) {
					_ = s.RequestCores(dom, 1, at) // the domain is in range by construction
				}
			}
			s.Schedule(at)
			for dom := 0; dom < clusterDomains; dom++ {
				if _, err := s.Deliver(dom, at, noopClient{}); err != nil {
					return err
				}
			}
		}
		per = append(per, float64(procCPU()-t0))
		tr.end(sp)
	}
	m.set("clustersched.decide_us", "us", median(per)/decisions/1e3)
	return nil
}

// runProbes runs every standalone layer probe.
func runProbes(tr *tracer, seed uint64, m metrics) error {
	for _, depth := range []int{16, 256, 4096} {
		tr.nextRun()
		if err := probeEngine(tr, seed, depth, m); err != nil {
			return err
		}
	}
	steps := []func() error{
		func() error { return probeCancel(tr, seed, m) },
		func() error { return probeArrivals(tr, seed, m) },
		func() error { return probeStats(tr, seed, m) },
		func() error { return probeSchedulers(tr, seed, m) },
		func() error { return probeObservability(tr, seed, m) },
		func() error { return probeParallel(tr, seed, m) },
		func() error { return probeCPU(tr, m) },
		func() error {
			ns, err := probeSwitch(tr, seed, "uproc.park/2", 2, false)
			m.set("uproc.switch_ns", "ns", ns)
			return err
		},
		func() error {
			ns, err := probeSwitch(tr, seed, "vpkey.park/24", 24, true)
			m.set("vpkey.switch_ns", "ns", ns)
			return err
		},
		func() error { return probeCluster(tr, seed, m) },
	}
	for _, f := range steps {
		tr.nextRun()
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}
