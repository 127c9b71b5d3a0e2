// Package journey implements request-journey tracing: a trace context
// minted per workload request and propagated causally through every
// crossing seam the codebase exposes as hooks — scheduler wakeup→run
// edges, user-interrupt deferred-delivery windows, call-gate crossings,
// and the Caladan IOKernel and CFS receive-ring data hops. Each journey
// is a deterministic span tree (parent/child plus follows-from links
// between consecutive segments) whose critical-path segments partition
// the request's sojourn *exactly*: queueing, running, uintr-deferred,
// gate, and dataplane time sum to arrival→completion by construction, and
// the conformance oracle re-checks the identity against the scheduler's
// own measurement.
//
// The same three rules as internal/obs govern this package:
//
//   - Determinism. Journey IDs are mint order, node IDs are creation
//     order, all timestamps are virtual time, and every export iterates
//     in a fixed order. Two runs with the same seed produce
//     byte-identical journey exports and flight-recorder dumps.
//   - Near-zero cost when disabled. Every method is safe on a nil
//     *Tracer / nil *Journey and returns immediately; instrumentation
//     sites call through without guarding. Canonical run bytes are
//     identical with journey tracing on or off — tracing observes, it
//     never perturbs.
//   - Bounded views where it matters. The always-on flight recorder is
//     a bounded window over the tracer's event arena: the last N journey
//     events survive for a black-box postmortem, scroll-outs are
//     counted, and a Dump snapshot costs nothing until a
//     kill/restart/failsafe actually fires.
package journey

import (
	"fmt"
	"slices"

	"vessel/internal/sim"
)

// Segment classifies one slice of a request's critical path. The five
// segments partition the sojourn: at every instant between arrival and
// completion a journey is in exactly one segment.
type Segment uint8

const (
	// SegQueue is time spent queued waiting for a core (including
	// control-plane dispatch latency before the run queue is reachable).
	SegQueue Segment = iota
	// SegRun is time spent executing on a core.
	SegRun
	// SegUintr is time inside a user-interrupt delivery or deferred-
	// delivery window that gates this request's dispatch.
	SegUintr
	// SegGate is crossing overhead: context-switch cost, dispatcher
	// handoff, call-gate style entry before the request runs.
	SegGate
	// SegData is time inside the data plane: IOKernel packet steering
	// and the CFS receive ring.
	SegData
	NumSegments
)

func (s Segment) String() string {
	switch s {
	case SegQueue:
		return "queue"
	case SegRun:
		return "run"
	case SegUintr:
		return "uintr"
	case SegGate:
		return "gate"
	case SegData:
		return "data"
	default:
		return fmt.Sprintf("Segment(%d)", uint8(s))
	}
}

// ParseSegment is the inverse of String, used by the journey decoder.
func ParseSegment(s string) (Segment, error) {
	for seg := Segment(0); seg < NumSegments; seg++ {
		if seg.String() == s {
			return seg, nil
		}
	}
	return 0, fmt.Errorf("journey: unknown segment %q", s)
}

// Node is one node of a journey's span tree. Node 0 is the root (the
// whole request, Parent == -1); every closed segment interval and every
// instant annotation is a child of the root. Follows links a child to
// the previous closed segment span — the follows-from edge of the
// causal chain — or is -1 for the first.
type Node struct {
	ID      int
	Parent  int
	Follows int
	Seg     Segment
	Start   sim.Time
	End     sim.Time
	Name    string
}

// Journey is one request's trace context: the live segment state
// machine plus the compactly-logged span tree. All methods are safe on
// a nil *Journey, so instrumentation sites never guard.
type Journey struct {
	ID     uint64
	Name   string
	Arrive sim.Time
	// Done is the completion time; valid only once Finished.
	Done sim.Time
	// Segs accumulates the critical-path decomposition. Once Finished,
	// the segments sum exactly to Done-Arrive.
	Segs [NumSegments]sim.Duration

	t        *Tracer
	cur      Segment
	since    sim.Time
	finished bool
	// folded marks that this journey's decomposition has been recorded
	// into the tracer's histograms. Folding is deferred off the finish
	// path (see Tracer.fold): histogram content is a pure function of the
	// set of finished journeys, so recording lazily — right before any
	// read — is observably identical and keeps Finish to one arena store.
	folded bool
	// The span tree is logged compactly on the hot path — one 16-byte
	// entry per segment transition or annotation, appended to the
	// tracer's shared pointer-free chain arena — and materialized on
	// demand by Tree(). lhead is the index of this journey's most recent
	// entry (-1 when none); entries chain backwards via prev, so
	// concurrent journeys interleave freely in the arena without any
	// per-journey buffer or allocation.
	lhead int32
}

// logEntry is one compact event in the tracer's arena — the single
// store every journey event costs on the hot path. The arena doubles as
// the span log and the flight recorder's event stream: entries append
// in simulation order, and the FlightLog renders the tail on demand.
//
// note encodes the kind:
//
//	note ≥ 0             instant annotation; note indexes the intern table
//	-NumSegments ≤ note  segment transition into Segment(-1-note)
//	noteMint/noteFinish  journey lifecycle (jid identifies the journey)
//	noteEvent            tracer-level seam event; prev holds the interned
//	                     name and jid the interned detail (no journey)
//
// prev chains a journey's transition/annotation entries backwards (-1 at
// the head) so Tree can replay them; lifecycle entries are unchained.
type logEntry struct {
	at   sim.Time
	jid  uint32
	note int32
	prev int32
}

const (
	noteMint   int32 = -16
	noteFinish int32 = -17
	noteEvent  int32 = -18
)

// closeSeg closes the current segment at the given instant (clamped
// monotonically: a retroactive timestamp before the segment opened
// collapses to zero length, never negative), charging the elapsed time
// to the segment accumulator.
func (j *Journey) closeSeg(at sim.Time) {
	if at < j.since {
		at = j.since
	}
	j.Segs[j.cur] += at.Sub(j.since)
	j.since = at
}

// To moves the journey into a new segment at the given instant, closing
// the current one. A transition into the current segment is a no-op
// (the segment keeps accumulating). Retroactive instants are allowed —
// the VESSEL reaction path splits an already-elapsed queue window into
// queue|uintr retroactively — and clamp at the segment's open time, so
// conservation can never break.
func (j *Journey) To(seg Segment, at sim.Time) {
	if j == nil || j.finished || seg == j.cur {
		return
	}
	j.closeSeg(at)
	j.cur = seg
	// The entry stores the clamped instant (j.since after closeSeg):
	// replaying it yields the same tree as replaying the raw timestamp,
	// and the flight recorder renders the transition where it took
	// effect.
	j.lhead = j.t.addLog(logEntry{at: j.since, jid: uint32(j.ID), note: -1 - int32(seg), prev: j.lhead})
}

// Annotate records an instant marker (a seam crossing: a SENDUIPI
// outcome, a gate invoke, a device submit) as a zero-length child node
// and a flight-recorder event. It does not change the segment.
func (j *Journey) Annotate(name string, at sim.Time) {
	if j == nil || j.finished {
		return
	}
	if at < j.since {
		at = j.since
	}
	idx := j.t.intern(name)
	j.lhead = j.t.addLog(logEntry{at: at, jid: uint32(j.ID), note: idx, prev: j.lhead})
}

// Finish completes the journey: the current segment closes at the given
// instant, the root span gets its end time, and the tracer folds the
// decomposition into its critical-path histograms, SLO monitor, and
// flight recorder. Further To/Annotate/Finish calls are no-ops.
func (j *Journey) Finish(at sim.Time) {
	if j == nil || j.finished {
		return
	}
	j.closeSeg(at)
	j.finished = true
	j.Done = j.since
	j.t.finish(j)
}

// Tree materializes the journey's span tree from the compact log: node
// 0 is the root request span, every closed segment interval and every
// annotation is a child of the root, and Follows links consecutive
// segment spans (the follows-from causal chain). Node IDs are creation
// order; the result is a pure deterministic function of the log, so two
// calls return identical trees.
func (j *Journey) Tree() []Node {
	if j == nil {
		return nil
	}
	nodes, _ := j.treeInto(nil, nil)
	return nodes
}

// treeInto builds the span tree Tree returns into nodes[:0], replaying
// the journey's log through log[:0] as scratch, and returns both buffers
// (grown as needed) so a caller walking many journeys reuses them.
func (j *Journey) treeInto(nodes []Node, log []logEntry) ([]Node, []logEntry) {
	log = j.t.chainInto(log, j.lhead)
	nodes = slices.Grow(nodes[:0], len(log)+2)
	nodes = append(nodes, Node{ID: 0, Parent: -1, Follows: -1, Start: j.Arrive, Name: j.Name})
	cur, since, last := SegQueue, j.Arrive, -1
	closeSeg := func(at sim.Time) {
		if at < since {
			at = since
		}
		if at > since {
			n := Node{
				ID: len(nodes), Parent: 0, Follows: last,
				Seg: cur, Start: since, End: at, Name: cur.String(),
			}
			nodes = append(nodes, n)
			last = n.ID
		}
		since = at
	}
	for _, e := range log {
		if e.note >= 0 {
			at := e.at
			if at < since {
				at = since
			}
			nodes = append(nodes, Node{
				ID: len(nodes), Parent: 0, Follows: -1,
				Seg: cur, Start: at, End: at, Name: j.t.noteStr(e.note),
			})
			continue
		}
		closeSeg(e.at)
		cur = Segment(-1 - e.note)
	}
	if j.finished {
		closeSeg(j.Done)
		nodes[0].End = j.Done
	}
	return nodes, log
}

// Finished reports whether the journey has completed.
func (j *Journey) Finished() bool { return j != nil && j.finished }

// Cur returns the segment the journey is currently in.
func (j *Journey) Cur() Segment {
	if j == nil {
		return SegQueue
	}
	return j.cur
}

// Sojourn returns Done-Arrive for a finished journey (0 otherwise).
func (j *Journey) Sojourn() sim.Duration {
	if j == nil || !j.finished {
		return 0
	}
	return j.Done.Sub(j.Arrive)
}

// Sum returns the sum of the critical-path segments. For a finished
// journey this equals Sojourn exactly — the conservation identity the
// conformance oracle checks.
func (j *Journey) Sum() sim.Duration {
	if j == nil {
		return 0
	}
	var tot sim.Duration
	for _, d := range j.Segs {
		tot += d
	}
	return tot
}
