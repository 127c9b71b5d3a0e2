package experiments

import (
	"fmt"

	"vessel/internal/obs"
	"vessel/internal/sched"
	"vessel/internal/sched/caladan"
	"vessel/internal/sim"
	"vessel/internal/vessel"
	"vessel/internal/workload"
)

// Fig7 reproduces the execution-timeline comparison at the bottom of
// Figure 7: the same colocated workload under Caladan's two-level policy
// and VESSEL's one-level policy, rendered as per-core occupancy strips.
// Caladan's cores show steal-window polling (r) and kernel reallocation
// blocks (K) between application bursts; VESSEL's cores are filled with
// application work separated by sub-µs switches (s).
type Fig7 struct {
	VesselStrip  string
	CaladanStrip string
	// AppFrac maps system → fraction of the rendered window spent on
	// application work.
	AppFrac map[string]float64
}

// fig7PerCore is the span capacity of each core's ring in Figure 7's
// private observer: the busiest core records just under 8k spans per run,
// so this leaves room to spare while Figure7 still refuses to render a
// window the ring has overwritten.
const fig7PerCore = 1 << 14

// Figure7 runs both schedulers on the same workload, each with its own
// observer, and renders a 100 µs window from the recorded spans. The two
// runs go directly through sched.Run — the executor contributes only its
// worker pool (one run per system, uncached). When o.Obs is set, each
// deterministic run is repeated with the shared observer attached so the
// experiment's trace covers Figure 7 too.
func Figure7(o Options) (Fig7, error) {
	out := Fig7{AppFrac: make(map[string]float64)}
	systems := []sched.Scheduler{vessel.Simulator{}, caladan.Simulator{Variant: caladan.Plain}}
	type fig7Out struct {
		name  string
		strip string
		frac  float64
	}
	outs := make([]fig7Out, len(systems))
	err := o.exec().Map(len(systems), func(i int) error {
		s := systems[i]
		const cores = 4
		rec := obs.New(fig7PerCore)
		var cfg sched.Config
		for _, ob := range []*obs.Observer{rec, o.Obs} {
			if ob == nil {
				continue
			}
			// Apps carry per-run state, so every run builds its own.
			mc := workload.NewLApp("memcached", workload.Memcached(),
				0.5*sched.IdealLCapacity(cores, workload.Memcached()))
			cfg = o.baseConfig(mc, workload.Linpack())
			cfg.Cores = cores
			cfg.Duration = 5 * sim.Millisecond
			cfg.Warmup = 1 * sim.Millisecond
			cfg.Obs = ob
			if _, err := sched.Run(s, cfg); err != nil {
				return err
			}
		}
		if n := rec.Overwritten(); n != 0 {
			return fmt.Errorf("fig7: %s overwrote %d spans", s.Name(), n)
		}
		from := sim.Time(cfg.Warmup)
		to := from.Add(100 * sim.Microsecond)
		spans := rec.Spans()
		strip := obs.Render(spans, cores, from, to, 100)
		// An accountant over the window clips each span to it.
		win := sched.Accountant{From: from, To: to}
		var app, total sim.Duration
		for _, sp := range spans {
			if !sp.Cat.Activity() {
				continue
			}
			d := win.Clip(sp.Start, sp.End)
			total += d
			if sp.Cat == obs.CatApp {
				app += d
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(app) / float64(total)
		}
		outs[i] = fig7Out{name: s.Name(), strip: strip, frac: frac}
		return nil
	})
	if err != nil {
		return Fig7{}, err
	}
	for _, r := range outs {
		out.AppFrac[r.name] = r.frac
		if r.name == "VESSEL" {
			out.VesselStrip = r.strip
		} else {
			out.CaladanStrip = r.strip
		}
	}
	return out, nil
}

// String renders the exhibit.
func (f Fig7) String() string {
	s := "Figure 7 — execution timelines under the two policies (memcached + Linpack, 4 cores)\n\n"
	s += "Caladan (two-level, conservative):\n" + f.CaladanStrip + "\n"
	s += "VESSEL (one-level, uProcess switches):\n" + f.VesselStrip + "\n"
	s += fmt.Sprintf("application-work fraction of the window: VESSEL %s, Caladan %s\n",
		pct(f.AppFrac["VESSEL"]), pct(f.AppFrac["Caladan"]))
	s += "(the paper's Figure 7: \"the uProcess's scheduler can fill the core with the applications' workloads\")\n"
	return s
}
