package vessel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/mem"
	"vessel/internal/obs/journey"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/smas"
	ivessel "vessel/internal/vessel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runloop_golden.txt")

// goldenParkLoop is a supervised worker that parks forever.
func goldenParkLoop(mg *ivessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Label("loop")
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.JmpTo("loop")
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// goldenCrasher parks once, then wild-stores into the runtime region: a
// contained fault that kills only itself.
func goldenCrasher(mg *ivessel.Manager, name string) *smas.Program {
	a := cpu.NewAssembler()
	a.Emit(cpu.AddImm{Dst: cpu.RDX, Imm: 1})
	a.Emit(cpu.Call{Target: mg.Domain.GatePark.Entry})
	a.Emit(cpu.MovImm{Dst: cpu.RCX, Imm: cpu.Word(smas.RuntimeBase)})
	a.Emit(cpu.Store{Src: cpu.RDX, Base: cpu.RCX})
	a.Emit(cpu.Halt{})
	return &smas.Program{Name: name, Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize}
}

// goldenSoak runs the chaosbench soak scenario for one plan seed: two
// domains of two cores, one supervised park loop per core, watchdogs
// armed, the five self-healing fault classes split across the domains and
// seeded random Uintr tampering on both.
func goldenSoak(t *testing.T, planSeed uint64, tr *journey.Tracer) []byte {
	t.Helper()
	c, err := selfheal.New(selfheal.Config{
		Domains:        2,
		CoresPerDomain: 2,
		WatchdogSoft:   20_000,
		WatchdogHard:   60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachJourney(tr)
	for dom := 0; dom < 2; dom++ {
		for core := 0; core < 2; core++ {
			name := fmt.Sprintf("d%dw%d", dom, core)
			err := c.AddWorker(dom, name, func(mg *ivessel.Manager) *smas.Program {
				return goldenParkLoop(mg, name)
			}, core, ivessel.RestartPolicy{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	c.InjectFaults(0, faultinject.Plan{
		Seed: planSeed,
		Faults: []faultinject.Fault{
			{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.PkeyLeak, At: sim.Time(15 * sim.Microsecond)},
			{Kind: faultinject.DomainCrash, At: sim.Time(50 * sim.Microsecond)},
		},
		Random:       8,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
		RandomCores:  2,
		RandomWindow: 300 * sim.Microsecond,
	})
	c.InjectFaults(1, faultinject.Plan{
		Seed: planSeed + 1_000_003,
		Faults: []faultinject.Fault{
			{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.UintrStorm, At: sim.Time(20 * sim.Microsecond), Delay: 20 * sim.Microsecond},
		},
		Random:       8,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.UintrStorm},
		RandomCores:  2,
		RandomWindow: 100 * sim.Microsecond,
	})
	rep, err := c.Run(200_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Canonical()
}

// goldenIdleStall runs the self-healing supervisor on one domain of two
// cores with a single worker on core 0, which the plan stalls: core 1 is
// halted with nothing runnable and must keep beating, and with no core
// making progress only the supervisor's idle tick moves the clock far
// enough for the detector to fence core 0.
func goldenIdleStall(t *testing.T) []byte {
	t.Helper()
	c, err := selfheal.New(selfheal.Config{Domains: 1, CoresPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = c.AddWorker(0, "w0", func(mg *ivessel.Manager) *smas.Program {
		return goldenParkLoop(mg, "w0")
	}, 0, ivessel.RestartPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	c.InjectFaults(0, faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CoreStall, Core: 0, At: sim.Time(10 * sim.Microsecond)},
	}})
	rep, err := c.Run(200_000, 400)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Canonical()
}

// queuePolicy preempts a full-quantum thread only while siblings wait and
// charges a fixed decision cost, so the golden pins both the decision and
// its cycle charge.
type queuePolicy struct{}

func (queuePolicy) Name() string { return "queue" }

func (queuePolicy) Decide(v ivessel.PolicyView) ivessel.PolicyDecision {
	return ivessel.PolicyDecision{Preempt: v.RanFull && v.QueueLen > 0, CostCycles: 50}
}

// goldenChaos runs RunChaos on a crash loop beside a park-loop survivor,
// in the shape of chaosbench's chaos run. With stall set it runs on two
// cores under a failsafe-wrapped costed policy, and the plan also stalls
// core 1 and panics the policy.
func goldenChaos(t *testing.T, planSeed uint64, stall bool) []byte {
	t.Helper()
	cores := 1
	if stall {
		cores = 2
	}
	mg, err := ivessel.NewManager(cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < cores; core++ {
		name := fmt.Sprintf("good%d", core)
		if _, err := mg.Launch(name, goldenParkLoop(mg, name), core); err != nil {
			t.Fatal(err)
		}
	}
	mg.EnableWatchdog(2000, 8000)
	_, err = mg.Supervise("crash", func() *smas.Program { return goldenCrasher(mg, "crash") }, 0,
		ivessel.RestartPolicy{Backoff: 1 * sim.Microsecond, MaxBackoff: 8 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Plan{
		Seed:         planSeed,
		Random:       8,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
		RandomCores:  cores,
		RandomWindow: 300 * sim.Microsecond,
	}
	var pol ivessel.Policy
	if stall {
		plan.Faults = []faultinject.Fault{
			{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(40 * sim.Microsecond)},
			{Kind: faultinject.PolicyPanic, At: sim.Time(80 * sim.Microsecond)},
		}
		fs := selfheal.NewFailsafe(queuePolicy{}, 0)
		pol = fs
		defer func() {
			if sw, reason := fs.Swapped(); !sw || reason != "panic" {
				t.Errorf("failsafe = (%v, %q), want a panic swap", sw, reason)
			}
		}()
	}
	inj := mg.InjectFaults(plan)
	if f, ok := pol.(faultinject.PolicyTarget); ok {
		inj.AttachPolicy(f)
	}
	for core := 0; core < cores; core++ {
		if err := mg.Start(core); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mg.RunChaos(ivessel.ChaosConfig{Steps: 200_000, Quantum: 400, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "rounds=%d preemptions=%d fatal=%v restarts=%d watchdog-kills=%d contained=%d\n",
		rep.Rounds, rep.Preemptions, rep.FatalCores, rep.Restarts, rep.WatchdogKills, rep.ContainedFaults)
	for core := 0; core < cores; core++ {
		fmt.Fprintf(&b, "core %d cycles=%d\n", core, mg.Machine().Core(core).Cycles)
	}
	b.WriteString(inj.Counters.String())
	b.WriteString(mg.Events().String())
	return b.Bytes()
}

// goldenScheduledCluster runs clusterbench's core auction, shrunk, with a
// cluster-policy panic injected mid-run and domain 0 drained empty so it
// yields cores back.
func goldenScheduledCluster(t *testing.T) []byte {
	t.Helper()
	s, err := NewScheduledCluster(SchedClusterConfig{
		Domains:      4,
		Cores:        16,
		CoresPerNode: 4,
		Policy:       "fairshare",
		Quantum:      1000,
		Faults: &FaultPlan{
			Seed:   7,
			Faults: []InjectedFault{{Kind: FaultClusterPolicyPanic, At: Time(150 * Microsecond)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for d := 0; d < s.Domains(); d++ {
			n := 2
			if d < 2 {
				n = 8
			}
			launchWave(t, s, d, n, fmt.Sprintf("w%d", w))
		}
		if err := s.Run(6); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 8; i++ {
			if err := s.Destroy(fmt.Sprintf("w%d-d0-%03d", w, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "policy=%s now=%d\n", s.PolicyName(), s.Now())
	b.Write(s.Report().Canonical())
	for d := 0; d < s.Domains(); d++ {
		m := s.Manager(d)
		for c := 0; c < m.NumCores(); c++ {
			parks, preempts := m.Stats(c)
			fmt.Fprintf(&b, "domain=%d core=%d parks=%d preempts=%d ns=%g\n", d, c, parks, preempts, m.CyclesNs(c))
		}
	}
	b.WriteString(s.Events().String())
	return b.Bytes()
}

// runLoopGolden renders every layer-1 run loop's observable history: the
// self-healing supervisor (two plan seeds, one run with a journey tracer
// attached, and an idle core beside a stalled one), RunChaos (with and without a stalled core under a
// failsafe policy), and ScheduledCluster.Run, whose Destroy calls also
// drive DrainZombies.
func runLoopGolden(t *testing.T) []byte {
	var b bytes.Buffer
	for _, seed := range []uint64{42, 7} {
		fmt.Fprintf(&b, "== selfheal soak seed=%d\n", seed)
		b.Write(goldenSoak(t, seed, nil))
	}
	b.WriteString("== selfheal soak seed=42 journey\n")
	b.Write(goldenSoak(t, 42, journey.NewTracer(journey.Config{
		SLOTarget: 30 * sim.Microsecond,
		SLOWindow: 50 * sim.Microsecond,
	})))
	b.WriteString("== selfheal idle core beside a stalled one\n")
	b.Write(goldenIdleStall(t))
	b.WriteString("== runchaos crash loop seed=42\n")
	b.Write(goldenChaos(t, 42, false))
	b.WriteString("== runchaos stall+policy panic seed=42\n")
	b.Write(goldenChaos(t, 42, true))
	b.WriteString("== scheduled cluster policy panic\n")
	b.Write(goldenScheduledCluster(t))
	return b.Bytes()
}

// TestRunLoopGolden pins the bytes of the layer-1 run loops — RunChaos,
// DrainZombies, the self-healing supervisor and ScheduledCluster.Run — so
// a refactor of the shared quantum step that changes what runs when shows
// up as a golden diff. Run with -update to rebless after an intentional
// change.
func TestRunLoopGolden(t *testing.T) {
	got := runLoopGolden(t)
	path := filepath.Join("testdata", "runloop_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s differs from golden at line %d:\n got  %s\n want %s\nrun with -update after intentional changes",
				path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs from golden in length (%d vs %d lines); run with -update after intentional changes",
		path, len(gl), len(wl))
}
