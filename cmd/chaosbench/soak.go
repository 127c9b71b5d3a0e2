package main

// The -soak mode: a multi-seed sweep of the cluster self-healing layer.
// Every seed builds a two-domain cluster of supervised park-loop workers,
// injects all five self-healing fault classes (core stall, domain crash,
// policy panic, Uintr storm, pkey leak) plus seed-randomised legacy Uintr
// tampering, and runs the supervision loop to quiescence — TWICE, because
// the headline claim is determinism: same seed, byte-identical recovery
// history. The sweep gates hard on zero conformance violations, full
// recovery-path coverage per seed, MTTR within the declared budget, and
// the double-run byte equality, then emits BENCH_chaos.json for CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"vessel/internal/conformance"
	"vessel/internal/faultinject"
	"vessel/internal/harness"
	"vessel/internal/harness/cliflags"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/vessel"
)

const (
	soakDomains      = 2
	soakCoresPerDom  = 2
	soakMTTRBudgetNs = int64(sim.Millisecond) // detect (500µs) + restart (500µs)
)

// soakCluster builds one seed's scenario: 2 domains × 2 cores, one
// supervised park-loop worker per core, watchdogs armed, and per-domain
// fault plans covering all five self-healing classes.
func soakCluster(planSeed uint64) (*selfheal.Cluster, []*faultinject.Injector, error) {
	c, err := selfheal.New(selfheal.Config{
		Domains:        soakDomains,
		CoresPerDomain: soakCoresPerDom,
		WatchdogSoft:   20_000,
		WatchdogHard:   60_000,
	})
	if err != nil {
		return nil, nil, err
	}
	for dom := 0; dom < soakDomains; dom++ {
		for core := 0; core < soakCoresPerDom; core++ {
			name := fmt.Sprintf("d%dw%d", dom, core)
			err := c.AddWorker(dom, name, func(mg *vessel.Manager) *smas.Program {
				return parkLoop(mg, name)
			}, core, vessel.RestartPolicy{})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	// Domain 0 exercises the machine-level classes; domain 1 the
	// policy/interrupt classes. Random legacy tampering rides on both.
	inj0 := c.InjectFaults(0, faultinject.Plan{
		Seed: planSeed,
		Faults: []faultinject.Fault{
			{Kind: faultinject.CoreStall, Core: 1, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.PkeyLeak, At: sim.Time(15 * sim.Microsecond)},
			{Kind: faultinject.DomainCrash, At: sim.Time(50 * sim.Microsecond)},
		},
		Random:       *random,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.DelayUintr},
		RandomCores:  soakCoresPerDom,
		RandomWindow: 300 * sim.Microsecond,
	})
	inj1 := c.InjectFaults(1, faultinject.Plan{
		Seed: planSeed + 1_000_003,
		Faults: []faultinject.Fault{
			{Kind: faultinject.PolicyPanic, At: sim.Time(10 * sim.Microsecond)},
			{Kind: faultinject.UintrStorm, At: sim.Time(20 * sim.Microsecond), Delay: 20 * sim.Microsecond},
		},
		Random:       *random,
		RandomKinds:  []faultinject.Kind{faultinject.DropUintr, faultinject.UintrStorm},
		RandomCores:  soakCoresPerDom,
		RandomWindow: 100 * sim.Microsecond,
	})
	return c, []*faultinject.Injector{inj0, inj1}, nil
}

type soakSeedResult struct {
	seed          uint64
	rep           *selfheal.Report
	counters      *stats.Counters // merged injector counters
	deterministic bool
	violations    []conformance.Violation
}

// soakSeed runs one seed's scenario twice and gates it through the
// conformance oracle.
func soakSeed(planSeed uint64) (soakSeedResult, error) {
	runOnce := func() (*selfheal.Report, *stats.Counters, error) {
		c, injs, err := soakCluster(planSeed)
		if err != nil {
			return nil, nil, err
		}
		rep, err := c.Run(*steps, *quantum)
		if err != nil {
			return nil, nil, err
		}
		merged := stats.NewCounters()
		for _, inj := range injs {
			merged.Merge(inj.Counters)
		}
		return rep, merged, nil
	}
	rep1, ctr, err := runOnce()
	if err != nil {
		return soakSeedResult{}, err
	}
	rep2, _, err := runOnce()
	if err != nil {
		return soakSeedResult{}, err
	}
	r := soakSeedResult{
		seed:          planSeed,
		rep:           rep1,
		counters:      ctr,
		deterministic: bytes.Equal(rep1.Canonical(), rep2.Canonical()),
	}
	// Every seed must exercise every recovery path — the plan guarantees
	// the triggers, the oracle verifies the recoveries happened.
	r.violations = conformance.CheckSelfHeal(
		fmt.Sprintf("soak-seed-%d", planSeed),
		selfheal.Config{}, // cluster defaults: 500µs detect + 500µs restart
		rep1,
		conformance.SelfHealExpect{MinFences: 1, MinRestarts: 1, MinPolicySwaps: 1, MinPkeysHealed: 1},
	)
	return r, nil
}

// soakBench is the BENCH_chaos.json schema. Struct fields marshal in
// declaration order and the one map is sorted by encoding/json, so the
// file is byte-deterministic for a given sweep.
type soakBench struct {
	Bench          string            `json:"bench"`
	FirstSeed      uint64            `json:"first_seed"`
	Seeds          int               `json:"seeds"`
	Steps          int               `json:"steps"`
	Quantum        int               `json:"quantum"`
	Domains        int               `json:"domains"`
	CoresPerDomain int               `json:"cores_per_domain"`
	Fences         int               `json:"fences"`
	DomainRestarts int               `json:"domain_restarts"`
	PolicySwaps    int               `json:"policy_swaps"`
	PkeysHealed    int               `json:"pkeys_healed"`
	EventsCancel   int               `json:"events_cancelled"`
	MTTRSamples    uint64            `json:"mttr_samples"`
	MTTRMaxNs      int64             `json:"mttr_max_ns"`
	MTTRP99Ns      int64             `json:"mttr_p99_ns"`
	MTTRBudgetNs   int64             `json:"mttr_budget_ns"`
	Violations     int               `json:"violations"`
	DeterminismOK  bool              `json:"determinism_ok"`
	KindsFired     map[string]uint64 `json:"kinds_fired"`
	Pass           bool              `json:"pass"`
}

func soakMain() {
	fmt.Printf("chaosbench -soak: cluster self-healing sweep (seed=%d, seeds=%d, %d steps @ quantum %d, %d domains × %d cores)\n\n",
		*seed, *seeds, *steps, *quantum, soakDomains, soakCoresPerDom)

	results := make([]soakSeedResult, *seeds)
	exec := &harness.Executor{Parallel: *parallel}
	err := exec.Map(*seeds, func(i int) error {
		r, err := soakSeed(*seed + uint64(i))
		if err != nil {
			return fmt.Errorf("seed %d: %w", *seed+uint64(i), err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		cliflags.Fail("chaosbench: soak", err)
	}

	bench := soakBench{
		Bench:          "chaos-soak",
		FirstSeed:      *seed,
		Seeds:          *seeds,
		Steps:          *steps,
		Quantum:        *quantum,
		Domains:        soakDomains,
		CoresPerDomain: soakCoresPerDom,
		MTTRBudgetNs:   soakMTTRBudgetNs,
		DeterminismOK:  true,
		KindsFired:     map[string]uint64{},
	}
	fired := stats.NewCounters()
	failed := false
	for _, r := range results {
		bench.Fences += r.rep.Fences
		bench.DomainRestarts += r.rep.DomainRestarts
		bench.PolicySwaps += r.rep.PolicySwaps
		bench.PkeysHealed += r.rep.PkeysHealed
		bench.EventsCancel += r.rep.EventsCancelled
		bench.MTTRSamples += r.rep.MTTR.Count
		if r.rep.MTTR.Max > bench.MTTRMaxNs {
			bench.MTTRMaxNs = r.rep.MTTR.Max
		}
		if r.rep.MTTR.P99 > bench.MTTRP99Ns {
			bench.MTTRP99Ns = r.rep.MTTR.P99
		}
		bench.Violations += len(r.violations)
		fired.Merge(r.counters)

		status := "ok"
		if !r.deterministic {
			bench.DeterminismOK = false
			status = "NONDETERMINISTIC"
			failed = true
		}
		if len(r.violations) > 0 {
			status = "VIOLATIONS"
			failed = true
		}
		fmt.Printf("  seed %-6d fences=%d restarts=%d swaps=%d healed-keys=%d mttr-max=%dns  %s\n",
			r.seed, r.rep.Fences, r.rep.DomainRestarts, r.rep.PolicySwaps,
			r.rep.PkeysHealed, r.rep.MTTR.Max, status)
		for _, v := range r.violations {
			fmt.Printf("    %s\n", v)
		}
	}

	// Coverage gate: every one of the five classes must actually have
	// fired somewhere in the sweep (a plan that silently skips a class
	// proves nothing about recovering from it).
	for _, kind := range []string{"corestall", "domaincrash", "policypanic", "uintr.storm", "pkeyleak"} {
		n := fired.Get("inject." + kind)
		bench.KindsFired[kind] = n
		if n == 0 {
			fmt.Printf("\nsoak: fault class %q never fired across the sweep\n", kind)
			failed = true
		}
	}
	if bench.MTTRMaxNs > soakMTTRBudgetNs {
		fmt.Printf("\nsoak: MTTR max %dns exceeds budget %dns\n", bench.MTTRMaxNs, soakMTTRBudgetNs)
		failed = true
	}
	bench.Pass = !failed

	fmt.Printf("\nsweep: fences=%d restarts=%d swaps=%d healed-keys=%d cancelled-events=%d\n",
		bench.Fences, bench.DomainRestarts, bench.PolicySwaps, bench.PkeysHealed, bench.EventsCancel)
	fmt.Printf("mttr: samples=%d p99=%dns max=%dns (budget %dns)\n",
		bench.MTTRSamples, bench.MTTRP99Ns, bench.MTTRMaxNs, bench.MTTRBudgetNs)
	fmt.Printf("determinism: double-run canonical bytes identical for all %d seeds: %v\n",
		*seeds, bench.DeterminismOK)

	if *benchOut != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			cliflags.Fail("chaosbench: soak", err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			cliflags.Fail("chaosbench: soak", err)
		}
		fmt.Printf("benchmark summary written to %s\n", *benchOut)
	}

	if failed {
		fmt.Println("\nself-healing soak FAILED")
		os.Exit(cliflags.ExitFailure)
	}
	fmt.Println("\nself-healing held: every fault class recovered, deterministically, within budget")
}
