package journey

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"vessel/internal/sim"
)

// refWriteText is the fmt-based journey text writer the streaming export
// replaced, kept as the reference model: every export byte must match it.
func refWriteText(w io.Writer, recs []Record, flightOverwritten uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, Header)
	finished := 0
	for _, r := range recs {
		if r.Finished {
			finished++
		}
	}
	fmt.Fprintf(bw, "# journeys %d finished %d flight-overwritten %d\n",
		len(recs), finished, flightOverwritten)
	for _, r := range recs {
		fin := 0
		if r.Finished {
			fin = 1
		}
		fmt.Fprintf(bw, "journey %d %d %d %d", r.ID, int64(r.Arrive), int64(r.Done), fin)
		for _, d := range r.Segs {
			fmt.Fprintf(bw, " %d", int64(d))
		}
		fmt.Fprintf(bw, " %s\n", refDisplayName(r.Name))
		for _, n := range r.Nodes {
			end := n.End
			if end < n.Start {
				end = n.Start // unfinished root: End never set
			}
			fmt.Fprintf(bw, "node %d %d %d %d %s %d %d %s\n",
				r.ID, n.ID, n.Parent, n.Follows, n.Seg, int64(n.Start), int64(end), refDisplayName(n.Name))
		}
	}
	return bw.Flush()
}

func refDisplayName(name string) string {
	if name == "" {
		return "-"
	}
	return strings.ReplaceAll(name, " ", "_")
}

// refTracerText is the reference export of a live tracer: its records,
// materialised whole, through refWriteText.
func refTracerText(t *Tracer) []byte {
	var b bytes.Buffer
	if err := refWriteText(&b, t.Records(), t.Flight().Overwritten()); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// handRecords covers the text form's corner cases: an empty name, spaces
// in journey and node names, an unfinished root (End < Start), negative
// and out-of-range fields, a segment outside the known set, and a
// journey with zero segments and no nodes.
func handRecords() []Record {
	return []Record{
		{ID: 1, Name: "", Arrive: 5, Done: 9, Finished: true,
			Segs: [NumSegments]sim.Duration{1, 2, 0, 1, 0},
			Nodes: []Node{
				{ID: 0, Parent: -1, Follows: -1, Start: 5, End: 9, Name: ""},
				{ID: 1, Parent: 0, Follows: -1, Seg: SegQueue, Start: 5, End: 6, Name: "queue"},
				{ID: 2, Parent: 0, Follows: -1, Seg: SegQueue, Start: 6, End: 6, Name: "gate invoke x"},
				{ID: 3, Parent: 0, Follows: 1, Seg: SegRun, Start: 6, End: 9, Name: "run"},
			}},
		{ID: 2, Name: "mc svc", Arrive: 10, Segs: [NumSegments]sim.Duration{3},
			Nodes: []Node{{ID: 0, Parent: -1, Follows: -1, Start: 10, Name: "mc svc"}}},
		{ID: 3, Name: "zero segs"},
		{ID: 1 << 63, Name: " lead and trail ", Arrive: -5, Done: -9, Finished: true,
			Segs:  [NumSegments]sim.Duration{-1, -2, -3, -4, -5},
			Nodes: []Node{{ID: -1, Parent: -2, Follows: -7, Seg: Segment(9), Start: -3, End: -4, Name: "_"}}},
	}
}

func TestWriteTextMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []Record
		ow   uint64
	}{
		{"nil", nil, 0},
		{"hand-built", handRecords(), 17},
		{"max-overwritten", handRecords()[:1], 1<<64 - 1},
	} {
		var got, want bytes.Buffer
		if err := WriteText(&got, tc.recs, tc.ow); err != nil {
			t.Fatal(err)
		}
		if err := refWriteText(&want, tc.recs, tc.ow); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteText differs from the reference:\n got:\n%s\n want:\n%s", tc.name, got.Bytes(), want.Bytes())
		}
	}
}

// TestTracerWriteTextMatchesReference drives a live tracer through the
// same corner cases — spaced and empty names, spaced annotations,
// retroactive transitions, seam events, unfinished journeys — and
// requires the streamed export to equal the reference over Records().
func TestTracerWriteTextMatchesReference(t *testing.T) {
	tr := NewTracer(Config{FlightCap: 4})
	for i := int64(0); i < 700; i++ { // spans two journey arena blocks
		name := []string{"mc svc", "", "plain"}[i%3]
		j := tr.Mint(name, us(i))
		j.To(SegGate, us(i+1))
		j.Annotate("gate invoke x", us(i+1))
		j.To(SegQueue, us(i)) // retroactive: clamps to the open instant
		j.To(SegRun, us(i+2))
		tr.Event(us(i+2), "sched.switch", "core=1 to app")
		if i%5 != 0 {
			j.Finish(us(i + 3 + i%4))
		}
	}
	var nilTracer *Tracer
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{{"nil", nilTracer}, {"empty", New()}, {"busy", tr}} {
		var got bytes.Buffer
		if err := tc.tr.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if want := refTracerText(tc.tr); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: Tracer.WriteText differs from the reference (%d vs %d bytes)", tc.name, got.Len(), len(want))
		}
	}
}

// failAfter is a writer that accepts n bytes and then fails.
type failAfter int

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > int(*f) {
		return 0, errors.New("disk full")
	}
	*f -= failAfter(len(p))
	return len(p), nil
}

// TestWriteTextReportsWriteError: a writer that fails mid-export makes
// both journey text writers return its error.
func TestWriteTextReportsWriteError(t *testing.T) {
	tr := New()
	for i := int64(0); i < 200; i++ {
		tr.Mint("req", us(i)).Finish(us(i + 1))
	}
	w := failAfter(5000)
	if err := tr.WriteText(&w); err == nil {
		t.Error("Tracer.WriteText ignored a failing writer")
	}
	w = failAfter(5000)
	if err := WriteText(&w, tr.Records(), 0); err == nil {
		t.Error("WriteText ignored a failing writer")
	}
}
