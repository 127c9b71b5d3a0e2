package journey

import (
	"fmt"
	"slices"
	"strings"

	"vessel/internal/obs"
	"vessel/internal/sim"
	"vessel/internal/stats"
	"vessel/internal/trace"
)

// DefaultFlightCap is the default flight-recorder capacity: the last N
// journey events retained for black-box postmortems.
const DefaultFlightCap = 1 << 10

// Config parameterises a Tracer. The zero value is usable: default
// flight-recorder capacity, no SLO target, an owned metrics registry.
type Config struct {
	// FlightCap bounds the flight recorder (≤0 selects DefaultFlightCap).
	FlightCap int
	// SLOTarget classifies finished journeys: sojourn above the target
	// is an SLO violation. Zero disables SLO accounting.
	SLOTarget sim.Duration
	// SLOWindow rolls health signals into fixed windows of virtual time
	// (goodput and violation fraction per window). Zero keeps only the
	// whole-run signal.
	SLOWindow sim.Duration
	// Registry receives the tracer's health counters and histograms
	// (journey.finished, journey.slo.*, journey.seg.*). Nil allocates a
	// private registry, so journey tracing works with obs off.
	Registry *obs.Registry
	// SampleEvery records 1 in N requests (values ≤1 record all): Mint
	// returns a live journey for every Nth request and nil — the
	// universally safe no-op journey — for the rest. The skip is a
	// deterministic arrival-counter decision, so identical runs sample
	// identical requests. Sampling trades per-request attribution
	// coverage for mint/record overhead; SLO tallies and histograms then
	// describe the sampled population.
	SampleEvery int
}

// WindowStat is one closed SLO window's health signal.
type WindowStat struct {
	Index int64  // window number (Done / SLOWindow)
	Good  uint64 // finishes within the SLO target
	Bad   uint64 // finishes above the SLO target
}

// FlightLog is the always-on flight recorder: a bounded view over the
// tail of the tracer's event arena. The arena already records every
// journey event in simulation order for the span trees, so the black
// box costs nothing extra on the hot path — the last FlightCap events
// are simply the arena's tail, rendered to trace.Events only when a
// dump or export actually reads them. Events that scroll out of the
// window are counted as overwritten, never lost silently.
type FlightLog struct {
	t   *Tracer
	max int
}

// Overwritten returns how many events have scrolled out of the window.
func (l *FlightLog) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	if total := l.t.logTotal(); total > l.max {
		return uint64(total - l.max)
	}
	return 0
}

// Events returns the retained events oldest-first, rendered in the
// canonical trace.Event form.
func (l *FlightLog) Events() []trace.Event {
	if l == nil {
		return nil
	}
	total := l.t.logTotal()
	n := total
	if n > l.max {
		n = l.max
	}
	if n == 0 {
		return nil
	}
	out := make([]trace.Event, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, l.t.renderEvent(l.t.logAt(i)))
	}
	return out
}

// Dump is one flight-recorder snapshot: the black-box postmortem taken
// when a uProcess is killed, a domain restarts, or a failsafe swap
// fires.
type Dump struct {
	At          sim.Time
	Reason      string
	Overwritten uint64
	Events      []trace.Event
}

// Text renders the dump in its canonical byte form.
func (d Dump) Text() string {
	var b strings.Builder
	b.WriteString("# vessel-flight-dump v1\n")
	fmt.Fprintf(&b, "# at %d reason %s events %d overwritten %d\n",
		int64(d.At), d.Reason, len(d.Events), d.Overwritten)
	for _, e := range d.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Tracer is the per-run journey hub: it mints journeys in deterministic
// order, owns the critical-path histograms and the SLO monitor, and
// runs the always-on bounded flight recorder. The nil *Tracer is the
// disabled state — every method returns immediately, and journeys
// minted from it are nil (themselves no-ops).
type Tracer struct {
	cfg    Config
	reg    *obs.Registry
	minted uint64
	// seen counts every Mint call, sampled or not — the denominator of
	// the sampling decision (and of Sampled).
	seen    uint64
	seg     [NumSegments]*stats.Histogram
	sojourn *stats.Histogram
	flight  *FlightLog
	// Journeys are carved out of fixed-size arena blocks (pointers stay
	// valid — blocks are never moved, only replaced when full), cutting
	// per-request allocations and GC pointer churn on the mint path.
	// Mint order is blocks then arenaBlk[:arenaN]; there is no separate
	// pointer index.
	blocks   [][]Journey
	arenaBlk []Journey
	arenaN   int
	// The event arena: fixed 4096-entry pointer-free blocks shared by
	// all journeys, holding every journey event in simulation order. An
	// entry's global index is block<<logShift | offset; journeys chain
	// their span entries backwards through it (see Journey.lhead), and
	// the flight recorder is a bounded view of its tail — so recording
	// any event is one 24-byte store with no allocation and nothing for
	// the GC to scan.
	lblocks [][]logEntry
	lN      int
	// The intern table backing annotation and seam-event names: a small
	// fixed vocabulary, referenced from entries by index.
	strs []string
	sidx map[string]int32

	good, bad       uint64
	curWindow       int64
	winGood, winBad uint64
	windowOpen      bool
	windows         []WindowStat
	dumps           []Dump
}

// NewTracer returns an enabled tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = DefaultFlightCap
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Tracer{cfg: cfg, reg: reg, sidx: make(map[string]int32)}
	t.flight = &FlightLog{t: t, max: cfg.FlightCap}
	// The critical-path histograms ARE the registry's: resolved once
	// here, recorded by handle on the finish path (no per-sample name
	// lookup), summarised by every registry snapshot.
	for s := range t.seg {
		t.seg[s] = reg.Hist("journey.seg." + Segment(s).String())
	}
	t.sojourn = reg.Hist("journey.sojourn")
	return t
}

// New returns an enabled tracer with default configuration.
func New() *Tracer { return NewTracer(Config{}) }

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Reg returns the tracer's metrics registry (nil when disabled). Any
// pending journey decompositions are folded into the registry-backed
// histograms first, so a snapshot taken through here is complete.
func (t *Tracer) Reg() *obs.Registry {
	if t == nil {
		return nil
	}
	t.fold()
	return t.reg
}

// Mint opens a new journey for a request arriving at the given instant.
// The journey starts in SegQueue. Journey IDs are mint order — the
// deterministic identity every export keys on. Under sampling
// (Config.SampleEvery > 1) only every Nth request gets a journey; the
// rest return nil, which every Journey method accepts as a no-op, so
// callers never check.
func (t *Tracer) Mint(name string, at sim.Time) *Journey {
	if t == nil {
		return nil
	}
	t.seen++
	if t.cfg.SampleEvery > 1 && (t.seen-1)%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	t.minted++
	if t.arenaN == len(t.arenaBlk) {
		if t.arenaBlk != nil {
			t.blocks = append(t.blocks, t.arenaBlk)
		}
		t.arenaBlk = make([]Journey, 1<<arenaShift)
		t.arenaN = 0
	}
	j := &t.arenaBlk[t.arenaN]
	t.arenaN++
	// Field assignment, not a struct literal: the arena slot is used
	// exactly once and comes back zeroed from the allocator, so writing
	// only the live fields skips re-clearing the inline node buffer.
	j.ID = t.minted
	j.Name = name
	j.Arrive = at
	j.t = t
	j.since = at
	j.lhead = -1
	t.addLog(logEntry{at: at, jid: uint32(j.ID), note: noteMint, prev: -1})
	return j
}

// logShift sizes the event-arena blocks (1<<logShift entries, 96 KiB of
// pointer-free log per block); arenaShift sizes the journey arena blocks.
const (
	logShift   = 12
	arenaShift = 9
)

// addLog appends one entry to the event arena and returns its global
// index. Only reachable through a live tracer (journey methods no-op on
// nil journeys before getting here), so t is never nil.
func (t *Tracer) addLog(e logEntry) int32 {
	if len(t.lblocks) == 0 || t.lN == 1<<logShift {
		t.lblocks = append(t.lblocks, make([]logEntry, 1<<logShift))
		t.lN = 0
	}
	blk := t.lblocks[len(t.lblocks)-1]
	blk[t.lN] = e
	idx := int32((len(t.lblocks)-1)<<logShift | t.lN)
	t.lN++
	return idx
}

// chainInto materializes one journey's span-log entries oldest-first
// into out[:0] by walking its backwards chain from head (-1 yields none).
func (t *Tracer) chainInto(out []logEntry, head int32) []logEntry {
	out = out[:0]
	if t == nil || head < 0 {
		return out
	}
	n := 0
	for i := head; i >= 0; n++ {
		i = t.lblocks[i>>logShift][i&(1<<logShift-1)].prev
	}
	out = slices.Grow(out, n)[:n]
	for i := head; i >= 0; {
		e := t.lblocks[i>>logShift][i&(1<<logShift-1)]
		n--
		out[n] = e
		i = e.prev
	}
	return out
}

// logTotal returns the number of entries in the event arena.
func (t *Tracer) logTotal() int {
	if t == nil || len(t.lblocks) == 0 {
		return 0
	}
	return (len(t.lblocks)-1)<<logShift | t.lN
}

// logAt returns the arena entry at a global index.
func (t *Tracer) logAt(i int) logEntry {
	return t.lblocks[i>>logShift][i&(1<<logShift-1)]
}

// journeyByID returns the minted journey with the given ID (mint order
// is arena order, so this is a direct block lookup).
func (t *Tracer) journeyByID(id uint64) *Journey {
	i := int(id - 1)
	if bi := i >> arenaShift; bi < len(t.blocks) {
		return &t.blocks[bi][i&(1<<arenaShift-1)]
	}
	return &t.arenaBlk[i&(1<<arenaShift-1)]
}

// renderEvent renders one arena entry in the canonical trace.Event form
// the flight recorder exposes.
func (t *Tracer) renderEvent(e logEntry) trace.Event {
	switch {
	case e.note >= 0:
		return trace.Event{T: e.at, Name: "journey.note", Detail: fmt.Sprintf("j=%d %s", e.jid, t.noteStr(e.note))}
	case e.note >= -int32(NumSegments):
		return trace.Event{T: e.at, Name: "journey.seg", Detail: fmt.Sprintf("j=%d seg=%s", e.jid, Segment(-1-e.note))}
	case e.note == noteMint:
		return trace.Event{T: e.at, Name: "journey.mint", Detail: fmt.Sprintf("j=%d app=%s", e.jid, t.journeyByID(uint64(e.jid)).Name)}
	case e.note == noteFinish:
		j := t.journeyByID(uint64(e.jid))
		return trace.Event{T: e.at, Name: "journey.finish", Detail: fmt.Sprintf("j=%d sojourn=%d", e.jid, int64(j.Sojourn()))}
	default: // noteEvent: prev is the interned name, jid the interned detail
		return trace.Event{T: e.at, Name: t.noteStr(e.prev), Detail: t.noteStr(int32(e.jid))}
	}
}

// intern maps a string into the tracer's intern table; nil-safe so
// journey methods can call through unconditionally.
func (t *Tracer) intern(s string) int32 {
	if t == nil {
		return -1
	}
	if i, ok := t.sidx[s]; ok {
		return i
	}
	i := int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.sidx[s] = i
	return i
}

// noteStr resolves an interned annotation name.
func (t *Tracer) noteStr(i int32) string {
	if t == nil || i < 0 || int(i) >= len(t.strs) {
		return ""
	}
	return t.strs[i]
}

// each calls fn for every minted journey in mint order.
func (t *Tracer) each(fn func(j *Journey)) {
	if t == nil {
		return
	}
	for _, blk := range t.blocks {
		for i := range blk {
			fn(&blk[i])
		}
	}
	for i := 0; i < t.arenaN; i++ {
		fn(&t.arenaBlk[i])
	}
}

// Event records a seam event that is not bound to one journey (a
// scheduler wakeup→run switch edge, a watchdog kill, a domain restart)
// into the flight recorder's event stream.
func (t *Tracer) Event(at sim.Time, name, detail string) {
	if t == nil {
		return
	}
	t.addLog(logEntry{at: at, jid: uint32(t.intern(detail)), note: noteEvent, prev: t.intern(name)})
}

// finish folds a completed journey into the histograms and the SLO
// monitor. Called by Journey.Finish.
func (t *Tracer) finish(j *Journey) {
	if t == nil {
		return
	}
	soj := j.Sojourn()
	t.addLog(logEntry{at: j.Done, jid: uint32(j.ID), note: noteFinish, prev: -1})
	// The sojourn/segment histograms are NOT recorded here: folding is
	// deferred to the first read (see fold), keeping the finish hot path
	// to one arena store plus the SLO tallies below.
	if t.cfg.SLOTarget <= 0 {
		return
	}
	viol := soj > t.cfg.SLOTarget
	if viol {
		t.bad++
		t.reg.Inc("journey.slo.violation")
	} else {
		t.good++
		t.reg.Inc("journey.slo.good")
	}
	if t.cfg.SLOWindow <= 0 {
		return
	}
	idx := int64(j.Done) / int64(t.cfg.SLOWindow)
	if t.windowOpen && idx != t.curWindow {
		t.rollWindow()
	}
	t.windowOpen = true
	t.curWindow = idx
	if viol {
		t.winBad++
	} else {
		t.winGood++
	}
}

// fold records every finished-but-unfolded journey's sojourn and
// segment decomposition into the registry-backed histograms (resolved
// handles; see NewTracer). Folding runs lazily — Analyze and Reg call
// it before any histogram read — so the per-request finish path pays
// nothing for them. Histogram content is independent of record order,
// and each journey folds exactly once, so the result is byte-identical
// to eager recording at every read point.
func (t *Tracer) fold() {
	t.each(func(j *Journey) {
		if !j.finished || j.folded {
			return
		}
		j.folded = true
		t.sojourn.Record(int64(j.Sojourn()))
		for s := Segment(0); s < NumSegments; s++ {
			if d := j.Segs[s]; d > 0 {
				t.seg[s].Record(int64(d))
			}
		}
	})
}

func (t *Tracer) rollWindow() {
	t.windows = append(t.windows, WindowStat{Index: t.curWindow, Good: t.winGood, Bad: t.winBad})
	t.reg.Observe("journey.slo.window.good", int64(t.winGood))
	t.reg.Observe("journey.slo.window.violation", int64(t.winBad))
	t.winGood, t.winBad = 0, 0
}

// Windows returns the closed SLO windows (plus the currently open one,
// if any, as the final entry).
func (t *Tracer) Windows() []WindowStat {
	if t == nil {
		return nil
	}
	out := append([]WindowStat(nil), t.windows...)
	if t.windowOpen {
		out = append(out, WindowStat{Index: t.curWindow, Good: t.winGood, Bad: t.winBad})
	}
	return out
}

// Goodput returns the number of finished journeys within the SLO
// target.
func (t *Tracer) Goodput() uint64 {
	if t == nil {
		return 0
	}
	return t.good
}

// SLOCounts returns the (good, violating) finish tallies.
func (t *Tracer) SLOCounts() (good, bad uint64) {
	if t == nil {
		return 0, 0
	}
	return t.good, t.bad
}

// ViolationFrac returns the fraction of SLO-classified finishes that
// violated the target (0 when the SLO monitor is off or nothing has
// finished) — the health signal selfheal consumes alongside phi-accrual.
func (t *Tracer) ViolationFrac() float64 {
	if t == nil || t.good+t.bad == 0 {
		return 0
	}
	return float64(t.bad) / float64(t.good+t.bad)
}

// PathMix returns the fraction of total attributed time per segment
// over finished journeys whose name starts with prefix (an empty prefix
// selects all) — the per-domain critical-path mix gauge.
func (t *Tracer) PathMix(prefix string) [NumSegments]float64 {
	var mix [NumSegments]float64
	if t == nil {
		return mix
	}
	var segs [NumSegments]float64
	var tot float64
	t.each(func(j *Journey) {
		if !j.finished || !strings.HasPrefix(j.Name, prefix) {
			return
		}
		for s, d := range j.Segs {
			segs[s] += float64(d)
			tot += float64(d)
		}
	})
	if tot == 0 {
		return mix
	}
	for s := range segs {
		mix[s] = segs[s] / tot
	}
	return mix
}

// Minted returns how many journeys have been minted.
func (t *Tracer) Minted() uint64 {
	if t == nil {
		return 0
	}
	return t.minted
}

// Sampled returns how many requests Mint has seen and how many of them
// received a journey; the two are equal when sampling is off.
func (t *Tracer) Sampled() (seen, minted uint64) {
	if t == nil {
		return 0, 0
	}
	return t.seen, t.minted
}

// Journeys returns the minted journeys in mint order (assembled on
// demand — the tracer keeps journeys in arena blocks, not a pointer
// index).
func (t *Tracer) Journeys() []*Journey {
	if t == nil || t.minted == 0 {
		return nil
	}
	out := make([]*Journey, 0, t.minted)
	t.each(func(j *Journey) { out = append(out, j) })
	return out
}

// Flight returns the flight recorder's event log (nil when disabled).
func (t *Tracer) Flight() *FlightLog {
	if t == nil {
		return nil
	}
	return t.flight
}

// Dump snapshots the flight recorder — the black-box postmortem. The
// dump is retained on the tracer (for the selfheal report) and
// returned.
func (t *Tracer) Dump(at sim.Time, reason string) Dump {
	if t == nil {
		return Dump{}
	}
	d := Dump{At: at, Reason: reason, Overwritten: t.flight.Overwritten(), Events: t.flight.Events()}
	t.dumps = append(t.dumps, d)
	t.reg.Inc("journey.flight.dump")
	return d
}

// Dumps returns the retained flight-recorder dumps in capture order.
func (t *Tracer) Dumps() []Dump {
	if t == nil {
		return nil
	}
	return t.dumps
}

// Analysis is the critical-path report: tail latency attributed, not
// just measured.
type Analysis struct {
	Finished   uint64
	Unfinished uint64
	Sojourn    stats.Summary
	Seg        [NumSegments]stats.Summary
	// Mix is the fraction of total attributed time per segment.
	Mix [NumSegments]float64
}

// Analyze summarises the tracer's finished journeys.
func (t *Tracer) Analyze() Analysis {
	var a Analysis
	if t == nil {
		return a
	}
	t.fold()
	t.each(func(j *Journey) {
		if j.finished {
			a.Finished++
		} else {
			a.Unfinished++
		}
	})
	a.Sojourn = t.sojourn.Summarize()
	for s := range t.seg {
		a.Seg[s] = t.seg[s].Summarize()
	}
	a.Mix = t.PathMix("")
	return a
}

// String renders the analysis as the human-readable critical-path
// breakdown (deterministic; used by vesselsim -journey output).
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journeys: %d finished, %d unfinished\n", a.Finished, a.Unfinished)
	fmt.Fprintf(&b, "sojourn:  %s\n", a.Sojourn.String())
	for s := Segment(0); s < NumSegments; s++ {
		if a.Seg[s].Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-6s %5.1f%%  %s\n", s.String(), a.Mix[s]*100, a.Seg[s].String())
	}
	return b.String()
}
