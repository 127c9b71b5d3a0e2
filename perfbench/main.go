// Command perfbench is the end-to-end benchmark of the simulator: it runs
// one named workload through the repository's public functions for a fixed
// host time, checks every simulated output against its golden digest, and
// prints every metric by name with its unit. README.md gives the why of
// each workload and the layer-to-metric table.
//
//	go run . -workload scale -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced runs. With
// -trace 1 it reports the per-layer metrics: spans around every layer
// call, standalone layer probes, and a CPU profile folded by package.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// minIters is the fewest measured iterations a run makes, whatever the
// time budget.
const minIters = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "scale", "workload to run: scale, colo, observed or cluster")
	seed := fs.Uint64("seed", defaultSeed, "input seed; golden digests are committed for seeds 0 to 15")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "directory for the traced run's span file (empty: do not write it)")
	digestOnly := fs.Bool("digest", false, "print the workload's digest for the seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	golden, _ := g.lookup(w.name, *seed)

	b := &bench{w: w, seed: *seed, golden: golden, budget: time.Duration(*seconds * float64(time.Second)), stdout: stdout}
	if *digestOnly {
		ref, err := b.reference()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, digest(ref))
		return 0
	}
	fmt.Fprintf(stdout, "# workload %s, seed %d: %s\n", w.name, b.seed, w.why)
	var res result
	if *traceFlag == 1 {
		res, err = b.traced(*out)
	} else {
		res, err = b.untraced()
	}
	for _, r := range b.l.reasons {
		fmt.Fprintln(stdout, "FAIL", r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if b.l.attempted == 0 {
			b.l.errored(1, err)
		}
		res = result{Metrics: metrics{}}
	}
	res.Attempted, res.Failed = b.l.attempted, b.l.failed
	res.Correct = err == nil && b.l.failed == 0
	fmt.Fprintf(stdout, "%-28s %14d %s\n", "attempted", res.Attempted, "runs")
	fmt.Fprintf(stdout, "%-28s %14.6f %s\n", "fail_frac", b.l.failFrac(), "ratio")
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	if !res.Correct {
		// A failed correctness check fails the command: no result line.
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload on one seed and books every pass.
type bench struct {
	w      workload
	seed   uint64
	golden string
	budget time.Duration
	stdout io.Writer
	l      ledger
	ref    []unit
}

// sample is one measured iteration.
type sample struct {
	setups             []float64 // CPU seconds per set-up
	wall, cpu          time.Duration
	requests, switches uint64
	mallocs, bytes     uint64
}

// Every iteration times its own set-ups, so that they sample the whole
// run: set-up repeats at least setupReps times and for at least
// setupBudget of wall time, and only the last prepared pass runs.
const (
	setupReps   = 3
	setupBudget = 20 * time.Millisecond
)

// prepare times set-ups and returns the last prepared pass and the CPU
// time of each set-up (see endToEnd for why CPU time). Each set-up starts
// from a collected heap and runs with the collector off, which runs
// between set-ups instead: the discarded passes' garbage then neither
// times into the next set-up nor inflates max_rss_mb, and whether a
// collection happens to start inside a set-up does not decide its time.
func (b *bench) prepare(tr *tracer) (pass, []float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.LockOSThread() // set-up runs on this goroutine alone: time its thread
	defer runtime.UnlockOSThread()
	var p pass
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupBudget {
		runtime.GC()
		t0 := threadCPU()
		var err error
		if p, err = b.w.prepare(b.seed, tr); err != nil {
			return nil, nil, err
		}
		times = append(times, (threadCPU() - t0).Seconds())
	}
	return p, times, nil
}

// reference runs the workload's reference pass, untimed: it warms caches
// and lazy set-up, and gives the canonical bytes every later pass must
// reproduce. It is checked against the golden digest.
func (b *bench) reference() ([]unit, error) {
	prep := b.w.reference
	if prep == nil {
		prep = b.w.prepare
	}
	p, err := prep(b.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("reference set-up: %w", err)
	}
	var sw stopwatch
	sw.start()
	units, err := p(nil, &sw)
	sw.stop()
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if len(units) == 0 {
		return nil, errors.New("reference pass produced no runs")
	}
	b.l.check(units, nil, b.golden)
	b.ref = units
	return units, nil
}

// iterate prepares and runs one pass and checks its outcome. tr is nil for
// untraced iterations.
func (b *bench) iterate(tr *tracer) (sample, error) {
	tr.nextRun()
	var s sample
	p, setups, err := b.prepare(tr)
	if err != nil {
		return s, err
	}
	s.setups = setups
	runtime.GC() // every pass starts from the same heap state
	var sw stopwatch
	sw.start()
	units, err := p(tr, &sw)
	sw.stop()
	s.wall, s.cpu, s.mallocs, s.bytes = sw.elapsed, sw.cpu, sw.mallocs, sw.bytes
	if err != nil {
		b.l.errored(len(b.ref), err)
		return s, nil
	}
	for _, u := range units {
		s.requests += u.requests
		s.switches += u.switches
	}
	b.l.check(units, b.ref, b.golden)
	return s, nil
}

// stopwatch accumulates wall time, process CPU time and heap allocations
// while it runs.
type stopwatch struct {
	running        bool
	t0             time.Time
	m0             runtime.MemStats
	elapsed        time.Duration
	mallocs, bytes uint64
	cpu0, cpu      time.Duration
}

// Linux CPU-time clocks, read at nanosecond precision. getrusage rounds a
// short interval to scheduler ticks.
const (
	clockProcessCPUTime = 2 // every thread of the process
	clockThreadCPUTime  = 3 // the calling thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Both clocks exist on every Linux the toolchain supports, and ts is
	// valid, so the call cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// procCPU returns the CPU time of every thread of the process so far.
func procCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the CPU time of the calling thread so far.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

func (s *stopwatch) start() {
	if s.running {
		return
	}
	s.running = true
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
	s.cpu0 = procCPU()
}

func (s *stopwatch) stop() {
	if !s.running {
		return
	}
	s.elapsed += time.Since(s.t0)
	s.cpu += procCPU() - s.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs += m.Mallocs - s.m0.Mallocs
	s.bytes += m.TotalAlloc - s.m0.TotalAlloc
	s.running = false
}

// measure runs untraced iterations until the next would overrun the
// budget, and at least minIters of them.
func (b *bench) measure() ([]sample, error) {
	start := time.Now()
	var samples []sample
	var per []float64
	for len(samples) < minIters || time.Since(start)+time.Duration(median(per)) <= b.budget {
		t0 := time.Now()
		s, err := b.iterate(nil)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		per = append(per, float64(time.Since(t0)))
	}
	return samples, nil
}

func durations(xs []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = f(s).Seconds()
	}
	return out
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (result, error) {
	if _, err := b.reference(); err != nil {
		return result{}, err
	}
	samples, err := b.measure()
	if err != nil {
		return result{}, err
	}
	m, wall := endToEnd(samples)
	b.print(m)
	fmt.Fprintln(b.stdout, "# wall-clock, not gated")
	b.print(wall)
	fmt.Fprintf(b.stdout, "%-28s %14d %s\n", "iterations", len(samples), "count")
	fmt.Fprintf(b.stdout, "%-28s %14.4f %s\n", "cpu_s.run_spread", spread(durations(samples, func(s sample) time.Duration { return s.cpu })), "ratio")
	fmt.Fprintf(b.stdout, "%-28s %14.4f %s\n", "wall_s.run_spread", spread(durations(samples, func(s sample) time.Duration { return s.wall })), "ratio")
	return result{Metrics: m}, nil
}

// endToEnd folds measured iterations into the end-to-end metrics: medians
// of per-iteration times and rates, and allocation totals over simulated
// totals.
//
// Host time is taken two ways. The gated figures use the CPU time of every
// thread of the process, which excludes time the hypervisor steals from
// the machine: on a shared two-vCPU virtual machine, the wall time of
// identical iterations varied by up to 40% from one minute to the next,
// and their CPU time by up to about 15%. Wall time and its rates are
// reported beside them for reading, not for gating.
func endToEnd(samples []sample) (gated, wall metrics) {
	var cpuReq, cpuSw, wallReq, wallSw, setups []float64
	var req, sw, allocs, bytes uint64
	for _, s := range samples {
		setups = append(setups, s.setups...)
		cpuReq = append(cpuReq, float64(s.requests)/s.cpu.Seconds())
		cpuSw = append(cpuSw, float64(s.switches)/s.cpu.Seconds())
		wallReq = append(wallReq, float64(s.requests)/s.wall.Seconds())
		wallSw = append(wallSw, float64(s.switches)/s.wall.Seconds())
		req += s.requests
		sw += s.switches
		allocs += s.mallocs
		bytes += s.bytes
	}
	gated, wall = metrics{}, metrics{}
	gated.set("cpu_s", "s", median(durations(samples, func(s sample) time.Duration { return s.cpu })))
	gated.set("setup_s", "s", median(setups))
	gated.set("sim_req_per_cpu_s", "1/s", median(cpuReq))
	gated.set("sim_switch_per_cpu_s", "1/s", median(cpuSw))
	gated.set("allocs_per_req", "count", ratio(allocs, req))
	gated.set("bytes_per_req", "B", ratio(bytes, req))
	gated.set("allocs_per_switch", "count", ratio(allocs, sw))
	gated.set("max_rss_mb", "MB", maxRSSMB())
	wall.set("wall_s", "s", median(durations(samples, func(s sample) time.Duration { return s.wall })))
	wall.set("sim_req_per_s", "1/s", median(wallReq))
	wall.set("sim_switch_per_s", "1/s", median(wallSw))
	return gated, wall
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (b *bench) print(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.stdout, "%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runtimeCounters reads the GC CPU time, the CPU time the program used,
// and the GC cycle count.
func runtimeCounters() (gcCPU, usedCPU, cycles float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return f(0), f(1) - f(2), f(3)
}

// minTracedPairs is the fewest untraced/traced iteration pairs a traced
// run makes.
const minTracedPairs = 2

// traced measures the per-layer metrics. Untraced and traced iterations
// alternate for half the budget; the traced ones run under spans and a CPU
// profile, the untraced ones give trace.overhead_frac its base and the GC
// figures. Then the standalone layer probes run, for about the other half.
func (b *bench) traced(out string) (result, error) {
	if _, err := b.reference(); err != nil {
		return result{}, err
	}
	tr := newTracer()
	var plain, traced []sample
	var gcCPU, usedCPU, cycles float64
	byLayer := make(map[string]float64) // sampled CPU ns per layer
	var sampled float64
	var buf bytes.Buffer
	start := time.Now()
	var pairs []float64
	runPlain := func() error {
		g0, c0, n0 := runtimeCounters()
		s, err := b.iterate(nil)
		if err != nil {
			return err
		}
		g1, c1, n1 := runtimeCounters()
		gcCPU, usedCPU, cycles = gcCPU+g1-g0, usedCPU+c1-c0, cycles+n1-n0
		plain = append(plain, s)
		return nil
	}
	runTraced := func() error {
		buf.Reset()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		s, err := b.iterate(tr)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		traced = append(traced, s)
		shares, total, err := foldProfile(buf.Bytes())
		if err != nil {
			return err
		}
		for k, v := range shares {
			byLayer[k] += v * float64(total)
		}
		sampled += float64(total)
		return nil
	}
	for len(pairs) < minTracedPairs || time.Since(start)+time.Duration(median(pairs)) <= b.budget/2 {
		t0 := time.Now()
		first, second := runPlain, runTraced
		if len(pairs)%2 == 1 { // alternate the order so neither side always runs first
			first, second = second, first
		}
		if err := first(); err != nil {
			return result{}, err
		}
		if err := second(); err != nil {
			return result{}, err
		}
		pairs = append(pairs, float64(time.Since(t0)))
	}

	m := metrics{}
	for _, l := range layers {
		v := 0.0
		if sampled > 0 {
			v = byLayer[l.name] / sampled
		}
		m.set("share."+l.name, "ratio", v)
	}
	cpuPlain := median(durations(plain, func(s sample) time.Duration { return s.cpu }))
	cpuTraced := median(durations(traced, func(s sample) time.Duration { return s.cpu }))
	m.set("trace.overhead_frac", "ratio", cpuTraced/cpuPlain-1)
	m.set("runtime.gc_cycles", "count", cycles/float64(len(plain)))
	gcFrac := 0.0
	if usedCPU > 0 {
		gcFrac = gcCPU / usedCPU
	}
	m.set("runtime.gc_cpu_frac", "ratio", gcFrac)
	if err := runProbes(tr, b.seed, m); err != nil {
		return result{}, err
	}

	e2e, wall := endToEnd(plain)
	fmt.Fprintln(b.stdout, "# end-to-end, untraced iterations of this run")
	b.print(e2e)
	b.print(wall)
	fmt.Fprintln(b.stdout, "# span self times")
	for _, line := range formatSelfTimes(selfTimes(tr.spans)) {
		fmt.Fprintln(b.stdout, line)
	}
	fmt.Fprintln(b.stdout, "# per-layer")
	b.print(m)
	if out != "" {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(b.stdout, "spans written to %s (%d spans)\n", path, len(tr.spans))
	}
	return result{Metrics: m}, nil
}
