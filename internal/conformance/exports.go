package conformance

import (
	"fmt"

	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
)

// Variants returns every scheduler variant the paper compares: the four
// Systems() plus Caladan's two Delay Range configurations.
func Variants() []sched.Scheduler {
	return append(Systems(),
		caladan.Simulator{Variant: caladan.DRLow},
		caladan.Simulator{Variant: caladan.DRHigh})
}

// ExportScenario is a small mixed L+B run (4 cores, 20 ms after 2 ms of
// warmup) whose latency app's name contains a space, so its journey text
// export exercises the name substitution; requests still in flight at the
// window end leave unfinished journeys.
func ExportScenario(seed uint64) Scenario {
	return Scenario{
		Seed:       seed,
		Cores:      4,
		DurationUs: 20000,
		WarmupUs:   2000,
		Apps: []AppSpec{
			{Name: "mc svc", Kind: "L", Dist: "memcached", LoadFrac: 0.5},
			{Name: "batch", Kind: "B", BWDemand: 2, MemFrac: 0.2},
		},
	}
}

// ExportRun is one scheduler's run of ExportScenario with a fresh journey
// tracer and observer attached.
type ExportRun struct {
	System  string
	Journey *journey.Tracer
	Obs     *obs.Observer
}

// ExportRuns runs ExportScenario(seed) once on every Variants() scheduler,
// in order. The runs feed the export goldens and the export differentials.
func ExportRuns(seed uint64) ([]ExportRun, error) {
	var runs []ExportRun
	for _, s := range Variants() {
		cfg := ExportScenario(seed).Config()
		cfg.Journey = journey.New()
		cfg.Obs = obs.New(0)
		if _, err := s.Run(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name(), err)
		}
		runs = append(runs, ExportRun{System: s.Name(), Journey: cfg.Journey, Obs: cfg.Obs})
	}
	return runs, nil
}
