package experiments

import (
	"fmt"
	"sort"

	"vessel/internal/harness"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Fig12Point is one (system, cores) goodput measurement.
type Fig12Point struct {
	System      string
	Cores       int
	GoodputMops float64
}

// Fig12 reproduces CPU-core scalability (§6.3.3): goodput — the maximum
// throughput achievable within a 60 µs P999 limit — as the domain's core
// count grows. The control-plane saturation model (a single scheduler /
// IOKernel server) produces the same shape the paper measures: VESSEL
// scales to ~42 cores per domain, Caladan to ~34.
type Fig12 struct {
	Points []Fig12Point
	// Peak maps system → (cores, goodput) at its maximum.
	PeakCores map[string]int
}

// p999Limit is the goodput constraint.
const p999Limit = 60_000 // ns

// goodput binary-searches the max load meeting the P999 limit. The search
// is adaptive — each probe's spec depends on the previous probe's result —
// so the cell runs its probes sequentially through e.RunOne; with a cache
// attached, each probe is content-addressed, so re-running the figure
// replays the whole search from cache.
func goodput(system string, o Options, e *harness.Executor, cores int) (float64, error) {
	mk := func(frac float64) harness.RunSpec {
		spec := o.spec(system, mcSpec(frac), linpackSpec())
		spec.Cores = cores
		if o.Quick {
			spec.DurationNs = int64(8 * sim.Millisecond)
			spec.WarmupNs = int64(2 * sim.Millisecond)
		} else {
			spec.DurationNs = int64(25 * sim.Millisecond)
			spec.WarmupNs = int64(5 * sim.Millisecond)
		}
		return spec
	}
	capacity := sched.IdealLCapacity(cores, workload.Memcached())
	meets := func(frac float64) (bool, float64, error) {
		rr, err := e.RunOne(mk(frac))
		if err != nil {
			return false, 0, err
		}
		a, _ := rr.Result.App("memcached")
		ok := a.Latency.P999 <= p999Limit && a.Tput.PerSecond() >= 0.93*frac*capacity
		return ok, a.Tput.PerSecond(), nil
	}
	lo, hi := 0.0, 1.1
	iters := 9
	if o.Quick {
		iters = 6
	}
	var best float64
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		ok, tput, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			best = tput
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, nil
}

// Figure12 runs the core sweep. Each (system, cores) cell is an adaptive
// binary search, so cells — not individual runs — are the parallel unit.
func Figure12(o Options) (Fig12, error) {
	coreCounts := []int{32, 34, 36, 38, 40, 42, 44}
	if o.Quick {
		coreCounts = []int{32, 38, 42, 44}
	}
	systems := []string{"VESSEL", "Caladan-DR-L"}
	type cell struct {
		system string
		cores  int
	}
	var cells []cell
	for _, name := range systems {
		for _, n := range coreCounts {
			cells = append(cells, cell{system: name, cores: n})
		}
	}
	e := o.exec()
	goodputs := make([]float64, len(cells))
	err := e.Map(len(cells), func(i int) error {
		g, err := goodput(cells[i].system, o, e, cells[i].cores)
		if err != nil {
			return err
		}
		goodputs[i] = g
		return nil
	})
	if err != nil {
		return Fig12{}, err
	}
	out := Fig12{PeakCores: make(map[string]int)}
	bestGoodput := make(map[string]float64)
	for i, c := range cells {
		g := goodputs[i]
		out.Points = append(out.Points, Fig12Point{System: c.system, Cores: c.cores, GoodputMops: g / 1e6})
		if g > bestGoodput[c.system] {
			bestGoodput[c.system] = g
			out.PeakCores[c.system] = c.cores
		}
	}
	return out, nil
}

// String renders the figure.
func (f Fig12) String() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{p.System, fmt.Sprintf("%d", p.Cores), f3(p.GoodputMops)})
	}
	s := table("Figure 12 — goodput (P999 ≤ 60µs) vs domain core count",
		[]string{"system", "cores", "goodput-Mops"}, rows)
	names := make([]string, 0, len(f.PeakCores))
	for name := range f.PeakCores {
		names = append(names, name)
	}
	sort.Strings(names) // map order must not leak into rendered bytes
	for _, name := range names {
		s += fmt.Sprintf("%s peaks at %d cores\n", name, f.PeakCores[name])
	}
	s += "(paper: VESSEL scales to 42 cores (+25.4% from 32), dips at 44; Caladan peaks at 34)\n"
	return s
}

// SystemPoints filters one system's points.
func (f Fig12) SystemPoints(name string) []Fig12Point {
	var out []Fig12Point
	for _, p := range f.Points {
		if p.System == name {
			out = append(out, p)
		}
	}
	return out
}
