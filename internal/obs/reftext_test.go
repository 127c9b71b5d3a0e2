package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"testing"

	"vessel/internal/sim"
)

// refSpans is the reflection-sorted Spans the comparator sort replaced,
// kept as the reference model for the canonical span order.
func refSpans(o *Observer) []Span {
	if o == nil {
		return nil
	}
	var out []Span
	for _, r := range o.rings {
		if r != nil {
			out = r.snapshot(out)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		return a.Name < b.Name
	})
	return out
}

// refWriteText is the fmt-based timeline text writer the streaming export
// replaced, kept as the reference model: every export byte must match it.
// count is the "# spans" note's figure.
func refWriteText(w io.Writer, count int, spans []Span, overwritten uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, timelineHeader)
	fmt.Fprintf(bw, "# spans %d overwritten %d\n", count, overwritten)
	for _, s := range spans {
		fmt.Fprintf(bw, "span %d %d %d %s %s\n",
			s.Core, int64(s.Start), int64(s.End), s.Cat, displayName(s.Name))
	}
	return bw.Flush()
}

// refObserverText is the reference export of a live observer.
func refObserverText(o *Observer) []byte {
	var b bytes.Buffer
	if err := refWriteText(&b, o.SpanCount(), refSpans(o), o.Overwritten()); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// handObserver records spans that tie on every prefix of the sort key
// (start; start and core; start, core and end; all but the name), empty
// and spaced names, a negative core, an unknown category, nested
// Begin/End, a deferred-Uintr window, and enough spans on core 5 to wrap
// its ring.
func handObserver() *Observer {
	o := New(8)
	o.Span(1, 10, 20, CatApp, "mc")
	o.Span(0, 10, 20, CatApp, "mc")
	o.Span(0, 10, 15, CatApp, "mc")
	o.Span(0, 10, 15, CatKernel, "mc")
	o.Span(0, 10, 15, CatApp, "")
	o.Span(0, 10, 15, CatApp, "a b")
	o.Span(-3, 7, 9, CatGate, "gate x")
	o.Span(2, 30, 25, CatRuntime, "rt") // clamped to an instant
	o.Mark(2, 12, Category(40), "odd")
	o.Begin(3, 5, CatRuntime, "outer")
	o.Begin(3, 6, CatSwitch, "inner")
	o.End(3, 8)
	o.End(3, 9)
	o.UintrDeferred(1, 3)
	o.UintrFlush(1, 11)
	for i := 0; i < 12; i++ {
		o.Span(5, sim.Time(40-i), 50, CatApp, "wrap")
	}
	return o
}

func TestObserverWriteTextMatchesReference(t *testing.T) {
	var nilObs *Observer
	for _, tc := range []struct {
		name string
		o    *Observer
	}{{"nil", nilObs}, {"empty", New(4)}, {"hand-built", handObserver()}} {
		if got, want := tc.o.Spans(), refSpans(tc.o); !slices.Equal(got, want) {
			t.Errorf("%s: Spans differs from the reference order:\n got %v\n want %v", tc.name, got, want)
		}
		var got bytes.Buffer
		if err := tc.o.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if want := refObserverText(tc.o); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteText differs from the reference:\n got:\n%s\n want:\n%s", tc.name, got.Bytes(), want)
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
// WriteText return its error.
func TestWriteTextReportsWriteError(t *testing.T) {
	o := New(0)
	for i := 0; i < 500; i++ {
		o.Span(i%4, sim.Time(i), sim.Time(i+1), CatApp, "mc")
	}
	w := failAfter(5000)
	if err := o.WriteText(&w); err == nil {
		t.Error("WriteText ignored a failing writer")
	}
}
