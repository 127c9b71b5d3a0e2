package journey

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vessel/internal/sim"
)

// Header is the first line of the plain-text journey interchange form —
// the version handshake cmd/traceconv checks before decoding.
const Header = "# vessel-journey v1"

// Record is one journey's exportable state: the decoded interchange
// form, decoupled from the live tracer so traceconv can round-trip it.
type Record struct {
	ID       uint64
	Name     string
	Arrive   sim.Time
	Done     sim.Time
	Finished bool
	Segs     [NumSegments]sim.Duration
	Nodes    []Node
}

// Records returns the tracer's journeys as records, in mint order. Every
// record holds its own span tree, so the whole run's trees are live at
// once. The Chrome export and tests use it; the tracer's text and
// collapsed exports read the arena directly instead.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, t.minted)
	t.each(func(j *Journey) { out = append(out, j.record(j.Tree())) })
	return out
}

// record returns the journey's exportable state over the given span tree.
func (j *Journey) record(nodes []Node) Record {
	return Record{
		ID: j.ID, Name: j.Name, Arrive: j.Arrive, Done: j.Done,
		Finished: j.finished, Segs: j.Segs, Nodes: nodes,
	}
}

// appendName appends a name in its export form: "-" for the empty name
// and "_" for every space, since the text form is space-separated.
func appendName(b []byte, name string) []byte {
	if name == "" {
		return append(b, '-')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == ' ' {
			c = '_'
		}
		b = append(b, c)
	}
	return b
}

// displayName returns a name in its export form (see appendName),
// without allocating when the name is already in that form.
func displayName(name string) string {
	if name != "" && strings.IndexByte(name, ' ') < 0 {
		return name
	}
	return string(appendName(nil, name))
}

// appendIntField appends a space-separated integer field: a space, then the
// decimal form of v.
func appendIntField(b []byte, v int64) []byte {
	return strconv.AppendInt(append(b, ' '), v, 10)
}

// appendHeader appends the header and the count note of the text form.
func appendHeader(b []byte, journeys, finished int, flightOverwritten uint64) []byte {
	b = append(b, Header+"\n# journeys "...)
	b = strconv.AppendInt(b, int64(journeys), 10)
	b = append(b, " finished "...)
	b = strconv.AppendInt(b, int64(finished), 10)
	b = append(b, " flight-overwritten "...)
	b = strconv.AppendUint(b, flightOverwritten, 10)
	return append(b, '\n')
}

// appendRecord appends one journey's lines of the text form: the
// "journey" line with the segment decomposition, then one "node" line
// per span-tree node.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, "journey "...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = appendIntField(b, int64(r.Arrive))
	b = appendIntField(b, int64(r.Done))
	if r.Finished {
		b = append(b, " 1"...)
	} else {
		b = append(b, " 0"...)
	}
	for _, d := range r.Segs {
		b = appendIntField(b, int64(d))
	}
	b = appendName(append(b, ' '), r.Name)
	b = append(b, '\n')
	for i := range r.Nodes {
		n := &r.Nodes[i]
		end := max(n.End, n.Start) // unfinished root: End never set
		b = append(b, "node "...)
		b = strconv.AppendUint(b, r.ID, 10)
		b = appendIntField(b, int64(n.ID))
		b = appendIntField(b, int64(n.Parent))
		b = appendIntField(b, int64(n.Follows))
		b = append(append(b, ' '), n.Seg.String()...)
		b = appendIntField(b, int64(n.Start))
		b = appendIntField(b, int64(end))
		b = appendName(append(b, ' '), n.Name)
		b = append(b, '\n')
	}
	return b
}

// WriteText emits the canonical plain-text journey form: the header, a
// count note carrying the flight recorder's overwrite count (so a
// truncated black box is never mistaken for a complete one), then per
// journey one "journey" line with the segment decomposition and one
// "node" line per span-tree node. Byte-deterministic given the same
// records — the golden form the on/off differential compares.
func WriteText(w io.Writer, recs []Record, flightOverwritten uint64) error {
	finished := 0
	for i := range recs {
		if recs[i].Finished {
			finished++
		}
	}
	// bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriter(w)
	b := appendHeader(nil, len(recs), finished, flightOverwritten)
	for i := range recs {
		bw.Write(b)
		b = appendRecord(b[:0], &recs[i])
	}
	bw.Write(b)
	return bw.Flush()
}

// WriteText emits the tracer's journeys in the text form of the
// package-level WriteText, byte for byte, streaming from the arena: each
// journey's span tree is rebuilt into scratch buffers reused across
// journeys, so the export holds one tree at a time, never all of them.
func (t *Tracer) WriteText(w io.Writer) error {
	finished := 0
	t.each(func(j *Journey) {
		if j.finished {
			finished++
		}
	})
	// bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriter(w)
	b := appendHeader(nil, int(t.Minted()), finished, t.Flight().Overwritten())
	var nodes []Node
	var log []logEntry
	t.each(func(j *Journey) {
		bw.Write(b)
		nodes, log = j.treeInto(nodes, log)
		rec := j.record(nodes)
		b = appendRecord(b[:0], &rec)
	})
	bw.Write(b)
	return bw.Flush()
}

// ReadText decodes a journey export produced by WriteText, returning
// the records and the flight-recorder overwrite count from the header.
func ReadText(r io.Reader) ([]Record, uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var recs []Record
	var overwritten uint64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != Header {
				return nil, 0, fmt.Errorf("journey: not a journey export (missing %q header)", Header)
			}
			continue
		}
		if strings.HasPrefix(text, "# journeys ") {
			f := strings.Fields(text)
			// "# journeys N finished M flight-overwritten K"
			if len(f) == 7 {
				overwritten, _ = strconv.ParseUint(f[6], 10, 64)
			}
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "journey":
			if len(f) != 5+int(NumSegments)+1 {
				return nil, 0, fmt.Errorf("journey: line %d: malformed journey line %q", line, text)
			}
			var rec Record
			id, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("journey: line %d: bad id: %v", line, err)
			}
			rec.ID = id
			arrive, err1 := strconv.ParseInt(f[2], 10, 64)
			done, err2 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, 0, fmt.Errorf("journey: line %d: bad times in %q", line, text)
			}
			rec.Arrive, rec.Done = sim.Time(arrive), sim.Time(done)
			rec.Finished = f[4] == "1"
			for s := 0; s < int(NumSegments); s++ {
				d, err := strconv.ParseInt(f[5+s], 10, 64)
				if err != nil {
					return nil, 0, fmt.Errorf("journey: line %d: bad segment: %v", line, err)
				}
				rec.Segs[s] = sim.Duration(d)
			}
			rec.Name = f[5+int(NumSegments)]
			if rec.Name == "-" {
				rec.Name = ""
			}
			recs = append(recs, rec)
		case "node":
			if len(f) != 9 {
				return nil, 0, fmt.Errorf("journey: line %d: malformed node line %q", line, text)
			}
			if len(recs) == 0 {
				return nil, 0, fmt.Errorf("journey: line %d: node before any journey", line)
			}
			rec := &recs[len(recs)-1]
			jid, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil || jid != rec.ID {
				return nil, 0, fmt.Errorf("journey: line %d: node journey id %q does not match journey %d", line, f[1], rec.ID)
			}
			var n Node
			ints := []*int{&n.ID, &n.Parent, &n.Follows}
			for i, p := range ints {
				v, err := strconv.Atoi(f[2+i])
				if err != nil {
					return nil, 0, fmt.Errorf("journey: line %d: bad node field: %v", line, err)
				}
				*p = v
			}
			seg, err := ParseSegment(f[5])
			if err != nil {
				return nil, 0, fmt.Errorf("journey: line %d: %v", line, err)
			}
			n.Seg = seg
			start, err1 := strconv.ParseInt(f[6], 10, 64)
			end, err2 := strconv.ParseInt(f[7], 10, 64)
			if err1 != nil || err2 != nil || end < start {
				return nil, 0, fmt.Errorf("journey: line %d: bad node times in %q", line, text)
			}
			n.Start, n.End = sim.Time(start), sim.Time(end)
			n.Name = f[8]
			if n.Name == "-" {
				n.Name = ""
			}
			rec.Nodes = append(rec.Nodes, n)
		default:
			return nil, 0, fmt.Errorf("journey: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if line == 0 {
		return nil, 0, fmt.Errorf("journey: empty export")
	}
	return recs, overwritten, nil
}

// chromeEvent is one Chrome trace-event. Journeys use "X" complete
// events for spans plus "s"/"f" flow events for the follows-from edges
// between consecutive critical-path segments. Field order is fixed by
// the struct, so the encoding is byte-deterministic.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds of virtual time
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	ID   string  `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
}

// journeyPID groups journey tracks apart from the obs timeline's
// activity (pid 0) and overlay (pid 1) track groups.
const journeyPID = 2

// WriteChromeTrace encodes journey records as Chrome trace-event JSON:
// one track (tid = journey ID) per request, the root request span and
// its segment children as "X" events, and a flow arrow ("s" at the end
// of each segment, "f" at the start of its successor) per follows-from
// edge. Unfinished journeys contribute their closed segments only.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	var events []chromeEvent
	for _, r := range recs {
		tid := int(r.ID)
		if r.Finished {
			events = append(events, chromeEvent{
				Name: displayName(r.Name), Cat: "journey", Ph: "X",
				TS: float64(r.Arrive) / 1000, Dur: float64(r.Done.Sub(r.Arrive)) / 1000,
				PID: journeyPID, TID: tid,
			})
		}
		for _, n := range r.Nodes {
			if n.ID == 0 {
				continue // root emitted above
			}
			events = append(events, chromeEvent{
				Name: displayName(n.Name), Cat: "journey." + n.Seg.String(), Ph: "X",
				TS: float64(n.Start) / 1000, Dur: float64(n.End.Sub(n.Start)) / 1000,
				PID: journeyPID, TID: tid,
			})
			if n.Follows >= 0 && n.Follows < len(r.Nodes) {
				prev := r.Nodes[n.Follows]
				flowID := fmt.Sprintf("j%d.%d", r.ID, n.ID)
				events = append(events, chromeEvent{
					Name: "follows", Cat: "journey.flow", Ph: "s",
					TS: float64(prev.End) / 1000, PID: journeyPID, TID: tid, ID: flowID,
				})
				events = append(events, chromeEvent{
					Name: "follows", Cat: "journey.flow", Ph: "f", BP: "e",
					TS: float64(n.Start) / 1000, PID: journeyPID, TID: tid, ID: flowID,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}

// WriteChromeTrace is the tracer-level convenience over Records.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Records())
}

// WriteCollapsed emits per-request collapsed stacks in the
// flamegraph.pl format: "request-name;segment weight-ns", aggregated
// over finished journeys in first-touch order — so the tail's
// critical-path mix renders as a flame graph.
func WriteCollapsed(w io.Writer, recs []Record) error {
	type key struct {
		name string
		seg  Segment
	}
	idx := make(map[key]int)
	var order []key
	var weight []int64
	for _, r := range recs {
		if !r.Finished {
			continue
		}
		for s := Segment(0); s < NumSegments; s++ {
			d := r.Segs[s]
			if d <= 0 {
				continue
			}
			k := key{displayName(r.Name), s}
			i, ok := idx[k]
			if !ok {
				i = len(order)
				idx[k] = i
				order = append(order, k)
				weight = append(weight, 0)
			}
			weight[i] += int64(d)
		}
	}
	bw := bufio.NewWriter(w)
	for i, k := range order {
		fmt.Fprintf(bw, "%s;%s %d\n", k.name, k.seg, weight[i])
	}
	return bw.Flush()
}

// WriteCollapsed is the tracer-level convenience over the finished
// journeys' records. It reads only their segment decomposition, so it
// builds no span trees.
func (t *Tracer) WriteCollapsed(w io.Writer) error {
	var recs []Record
	t.each(func(j *Journey) {
		if j.finished {
			recs = append(recs, j.record(nil))
		}
	})
	return WriteCollapsed(w, recs)
}
